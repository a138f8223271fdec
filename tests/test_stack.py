"""The stacked pipeline against the per-point references, bit for bit.

Golden digests pin whole CSV files; these properties pin each stacked stage
(state build, noise mix, rotation and readout, count draws, tomography
probabilities and linear inversion) against the per-point arithmetic it
replaced, over drawn inputs, so a stage that rounds differently fails here
by name.  The last tests pin which public stage names each subcommand
calls and how often a grid or a mixture builds its preparation settings.
"""

import dataclasses
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sloccsim import DensityMatrix4, NoiseModel, PreparationSettings, reconstruct
from sloccsim import sweeps
from sloccsim.cli import main
from sloccsim.config import ExperimentConfig, load_config_file, resolve
from sloccsim.measurement import outcome_probs, rotate_density, sample_counts
from sloccsim.mixture import mixed_state
from sloccsim.noise import noisy_state
from sloccsim.slocc import lr_ket_blocks, prepare_lr
from sloccsim.states import ket_to_density, validate_densities
from sloccsim.tomography import AXES, _project_physical, setting_probabilities

from oracles import (
    linear_inversion_oracle,
    noisy_chain_oracle,
    project_physical_oracle,
    pure_density_oracle,
    sample_counts_oracle,
    setting_probabilities_oracle,
)

unit = st.floats(0.0, 1.0)
betas = st.floats(0.0, math.pi / 2)
phis = st.floats(-20.0, 20.0)
points = st.lists(st.tuples(betas, phis), min_size=1, max_size=12)


def noisy_stack(grid, visibility, white):
    model = NoiseModel(visibility=visibility, white_weight=white, dephasing_weight=1.0 - white)
    kets = np.array([prepare_lr(PreparationSettings(beta, phi)) for beta, phi in grid])
    return noisy_state(ket_to_density(kets), model)


# A tiny negative phase reduces modulo 2*pi to exactly 2*pi under a bare %;
# the canonical reduction maps it to 0 wherever a phase is stored.
@settings(max_examples=60, deadline=None)
@given(grid=points, visibility=unit, white=unit)
@example(grid=[(1.0, -1e-300), (math.pi / 2, 2 * math.pi)], visibility=1.0, white=0.5)
def test_stacked_states_and_probabilities_match_per_point_chain(grid, visibility, white):
    states = noisy_stack(grid, visibility, white)
    probs = outcome_probs(rotate_density(states))
    for (beta, phi), state, row in zip(grid, states, probs):
        ref_state, ref_probs = noisy_chain_oracle(beta, phi, visibility, white)
        assert np.array_equal(state, ref_state)
        assert np.array_equal(row, ref_probs)


# A grid checks each beta and reduces each phi once; its kets must equal the
# per-point prepare_lr kets to the bit, signed zeros included.  pi/2 + 5e-13 is
# clamped to pi/2, and -1e-300 and 2*pi reduce to 0.  Its angle columns hold
# the configured angles, unreduced, beta outermost.
EDGE_BETAS = [0.0, math.pi / 2, math.pi / 2 + 5e-13]
EDGE_PHIS = [-1e-300, -0.0, 2 * math.pi, -math.pi, 1e17]


@settings(max_examples=60, deadline=None)
@given(
    grid_betas=st.lists(betas | st.sampled_from(EDGE_BETAS), min_size=1, max_size=5),
    grid_phis=st.lists(phis | st.sampled_from(EDGE_PHIS + [-1e300]), min_size=1, max_size=6),
)
@example(grid_betas=EDGE_BETAS, grid_phis=EDGE_PHIS)
def test_grid_kets_match_per_point_prepare_lr(grid_betas, grid_phis):
    cfg = dataclasses.replace(
        resolve(ExperimentConfig(), scenario="counts-demo"),
        beta_list=tuple(grid_betas),
        phi_list=tuple(grid_phis),
    )
    kets, beta_column, phi_column = sweeps._grid(cfg)
    points = [(b, p) for b in grid_betas for p in grid_phis]
    expected = np.array([prepare_lr(PreparationSettings(b, p)) for b, p in points])
    assert kets.dtype == expected.dtype and kets.shape == expected.shape
    assert np.array_equal(kets.view(np.uint64), expected.view(np.uint64))
    for column, angles in ((beta_column, [b for b, _ in points]), (phi_column, [p for _, p in points])):
        assert column.dtype == np.float64
        assert np.array_equal(column.view(np.uint64), np.array(angles).view(np.uint64))


# Probability rows as the pipeline makes them (exact zeros included at
# visibility 1), and drawn ones renormalised by a row sum.
drawn_rows = st.lists(
    st.lists(st.just(0.0) | st.floats(1e-3, 1.0), min_size=4, max_size=4)
    .filter(lambda row: sum(row) > 0.0)
    .map(lambda row: [v / sum(row) for v in row]),
    min_size=1,
    max_size=8,
)


@settings(max_examples=80, deadline=None)
@given(
    grid=points,
    visibility=unit,
    drawn=drawn_rows,
    total=st.integers(1, 10**6) | st.sampled_from([2**40, 10**12]),
    mode=st.sampled_from(["multinomial", "poisson"]),
    seed=st.integers(0, 2**64 - 1),
)
@example(
    grid=[(math.pi / 4, 0.0)],
    visibility=1.0,
    drawn=[[0.5, 0.0, 0.0, 0.5]],
    total=3,
    mode="poisson",
    seed=0,
)
def test_stacked_draws_match_per_row_chain(grid, visibility, drawn, total, mode, seed):
    pipeline = outcome_probs(rotate_density(noisy_stack(grid, visibility, 0.5)))
    probs = np.concatenate([pipeline, drawn])
    seeds = np.random.SeedSequence(seed).generate_state(len(probs), np.uint64).tolist()
    rngs = [np.random.default_rng(s) for s in seeds]
    references = [np.random.default_rng(s) for s in seeds]
    tally = sample_counts(probs, total, rngs, mode)
    assert tally.dtype == np.int64 and tally.shape == probs.shape
    for row, p, rng, reference in zip(tally.tolist(), probs, rngs, references):
        assert row == sample_counts_oracle(p, total, reference, mode)
        assert rng.bit_generator.state == reference.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(weights=st.lists(unit, min_size=1, max_size=8), phi1=phis, phi2=phis, beta=betas)
@example(weights=[0.0, 0.5], phi1=0.0, phi2=-4.2394487025754455e-230, beta=1.0)
def test_stacked_mixtures_match_single_mixtures(weights, phi1, phi2, beta):
    rho1 = pure_density_oracle(beta, phi1)
    rho2 = pure_density_oracle(beta, phi2)
    blends = mixed_state(weights, phi1, phi2, beta)
    assert blends.shape == (len(weights), 4, 4)
    for w, blend in zip(weights, blends):
        assert np.array_equal(blend, w * rho1 + (1.0 - w) * rho2)
        assert np.array_equal(blend, mixed_state([w], phi1, phi2, beta)[0])


@settings(max_examples=40, deadline=None)
@given(grid=points, visibility=unit, white=unit)
def test_sector_probabilities_match_kron_loop(grid, visibility, white):
    states = noisy_stack(grid, visibility, white)
    probs = setting_probabilities(states)
    for state, table in zip(states, probs):
        for (left, right), row in zip(itertools.product(AXES, AXES), table):
            ref = setting_probabilities_oracle(state, left, right)
            assert np.array_equal(row, ref)


count_tables = st.lists(
    st.lists(st.lists(st.integers(0, 60), min_size=4, max_size=4), min_size=9, max_size=9),
    min_size=1,
    max_size=6,
).map(lambda tables: np.array(tables, dtype=np.float64) + np.array([1.0, 0.0, 0.0, 0.0]))


@settings(max_examples=60, deadline=None)
@given(tables=count_tables)
def test_linear_inversion_matches_dict_accumulation(tables):
    for table, rho_hat in zip(tables, reconstruct(tables)):
        expected = project_physical_oracle(linear_inversion_oracle(table))
        assert np.array_equal(rho_hat, expected)
        assert np.array_equal(reconstruct(table[None])[0], expected)


# Hermitian unit-trace stacks: three drawn eigenvalues, and the fourth sets
# the trace to 1.  Zeros give rank-deficient states, negatives unphysical ones.
spectra = st.lists(
    st.lists(st.just(0.0) | st.floats(-1.0, 1.5), min_size=3, max_size=3).map(
        lambda vals: vals + [1.0 - sum(vals)]
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=80, deadline=None)
@given(spectra=spectra, seed=st.integers(0, 2**32 - 1))
@example(spectra=[[1.0, 0.0, 0.0, 0.0]], seed=0)  # one pure state
@example(spectra=[[1.2, 0.05, -0.1, -0.15], [0.25, 0.25, 0.25, 0.25]], seed=1)
def test_stacked_projection_matches_per_state_loop(spectra, seed):
    rng = np.random.default_rng(seed)
    shape = (len(spectra), 4, 4)
    q, _ = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    stack = (q * np.array(spectra)[:, None, :]) @ q.conj().swapaxes(-1, -2)
    once = _project_physical(stack)
    assert np.array_equal(once, np.stack([project_physical_oracle(m) for m in stack]))
    assert validate_densities(once) is once
    assert np.max(np.abs(_project_physical(once) - once)) <= 1e-12


def test_collapsed_row_raises_in_any_stack():
    # 1e17 - 1 rounds to 1e17, so no rank keeps positive mass
    collapsing = np.diag([1e17, 1.0, 0.0, -1e17]).astype(np.complex128)
    with pytest.raises(ValueError, match="collapsed to the zero matrix"):
        project_physical_oracle(collapsing)
    valid = np.eye(4, dtype=np.complex128) / 4.0
    for stack in (collapsing[None], np.stack([valid, collapsing, valid])):
        with pytest.raises(ValueError, match="collapsed to the zero matrix"):
            _project_physical(stack)


def _non_hermitian(m):
    m = m.copy()
    m[0, 1] += 1e-6
    return m


def _bad_trace(m):
    return m * 1.001


def _negative_eigenvalue(m):
    return 1.5 * m - 0.125 * np.eye(4)


@pytest.mark.parametrize("spoil", [_non_hermitian, _bad_trace, _negative_eigenvalue])
@settings(max_examples=20, deadline=None)
@given(grid=st.lists(st.tuples(betas, phis), min_size=2, max_size=8), data=st.data())
def test_stack_with_one_bad_matrix_raises_density_matrix_message(spoil, grid, data):
    stack = noisy_stack(grid, 0.9, 0.5)
    index = data.draw(st.integers(0, len(grid) - 1))
    stack[index] = spoil(noisy_stack([grid[index]], 1.0, 0.5)[0])
    with pytest.raises(ValueError) as single:
        DensityMatrix4(stack[index])
    with pytest.raises(ValueError) as stacked:
        validate_densities(stack)
    assert str(stacked.value) == str(single.value)


# The public stage names, on the module that defines each.  perfbench's
# tracer wraps these names to time each layer, so a sweep that stops calling
# one reads 0 in its per-layer report.
STAGES = (
    ("states", "ket_to_density"),
    ("noise", "noisy_state"),
    ("measurement", "rotate_density"),
    ("measurement", "outcome_probs"),
    ("measurement", "sample_counts"),
    ("mixture", "mixed_state"),
    ("tomography", "setting_probabilities"),
    ("tomography", "simulate_tomography"),
    ("tomography", "reconstruct"),
)
SAMPLED = {"ket_to_density", "noisy_state", "rotate_density", "outcome_probs", "sample_counts"}


@pytest.mark.parametrize(
    "command, body, expected",
    [
        ("phase-sweep", "[sweep]\nbeta_list = 45deg\nphi_list = 0, 1\n", SAMPLED),
        ("mixture-sweep", "[sweep]\np_list = 0, 1\n", SAMPLED | {"mixed_state"}),
        (
            "tomography-demo",
            "[sweep]\nphi_list = 0, 1\n",
            {
                "ket_to_density",
                "noisy_state",
                "setting_probabilities",
                "simulate_tomography",
                "reconstruct",
            },
        ),
    ],
)
def test_subcommands_call_the_public_stages(command, body, expected, tmp_path, monkeypatch):
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "sloccsim"]
    called = set()
    for owner, name in STAGES:
        original = getattr(sys.modules[f"sloccsim.{owner}"], name)

        def counted(*args, _name=name, _original=original, **kwargs):
            called.add(_name)
            return _original(*args, **kwargs)

        for module in modules:
            if module.__dict__.get(name) is original:
                monkeypatch.setattr(module, name, counted)
    config = tmp_path / "run.ini"
    config.write_text("[experiment]\nshots = 200\nbootstrap = 100\n" + body, encoding="utf-8")
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out.csv")]) == 0
    assert called == expected


def test_mixture_sweep_prepares_its_two_states_once(tmp_path, monkeypatch):
    # eleven weights blend one pair of states: two kets, not two per weight
    prepared = []

    def counted(blocks):
        prepared.extend(phase for _, phases in blocks for phase in phases)
        return lr_ket_blocks(blocks)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sloccsim" and module.__dict__.get("lr_ket_blocks") is lr_ket_blocks:
            monkeypatch.setattr(module, "lr_ket_blocks", counted)
    assert main(["mixture-sweep", "--out", str(tmp_path / "out.csv")]) == 0
    assert len(prepared) == 2


def test_grid_sweep_checks_each_beta_once(tmp_path, monkeypatch):
    # 3 betas x 5 phis: one PreparationSettings per beta, not one per point
    path = tmp_path / "run.ini"
    path.write_text(
        "[experiment]\nshots = 200\n[sweep]\n"
        "beta_list = 45deg, 30deg, 20deg\nphi_list = 0, 0.5, 1, 1.5, 2\n",
        encoding="utf-8",
    )
    cfg = resolve(load_config_file(path), scenario="phase-sweep")
    built = []
    check = PreparationSettings.__post_init__

    def counted(self):
        built.append(self.beta)
        check(self)

    monkeypatch.setattr(PreparationSettings, "__post_init__", counted)
    header, rows = sweeps.run_scenario(cfg)
    assert len(list(rows)) == 15
    assert built == list(cfg.beta_list)
