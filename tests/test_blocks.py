"""The sweeps run their per-row stages and draws in ``measurement.row_blocks`` blocks of ``BLOCK_ROWS`` rows.

Every blocked stage acts row by row, so the blocks must give the bits of one
whole-stack call, up to a last block of a single row; and no call may hold
an N-row (N, 4, 4) temporary beside its result.  A whole CLI run streams its
rows to the file, so its working set stays a small multiple of one row's
numbers.
"""

import contextlib
import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from sloccsim import cli, sweeps
from sloccsim.config import ExperimentConfig, resolve
from sloccsim.measurement import outcome_probs, rotate_density, sample_counts
from sloccsim.noise import fit_noise, noisy_state
from sloccsim.slocc import PreparationSettings, prepare_lr
from sloccsim.states import ket_to_density, validate_densities
from sloccsim.tomography import reconstruct, setting_probabilities, simulate_tomography

from oracles import row_generator_oracle, sample_counts_oracle

# one (BLOCK_ROWS, 4, 4) complex128 block: 64 KiB
BLOCK_BYTES = sweeps.BLOCK_ROWS * 4 * 4 * 16


def grid_config(scenario, n_beta, n_phi, ideal=False, **fields):
    """``scenario`` on an n_beta x n_phi grid of distinct angles."""
    cfg = resolve(ExperimentConfig(**fields), scenario=scenario, ideal=ideal)
    betas = np.linspace(0.1, 1.4, n_beta).tolist()
    phis = np.linspace(-3.0, 3.0, n_phi).tolist()
    return dataclasses.replace(cfg, beta_list=tuple(betas), phi_list=tuple(phis))


def recording(names):
    """Patches of each stage name on ``sweeps`` that record the rows of every call, and the record."""
    calls = {name: [] for name in names}

    def wrap(name, stage):
        def recorded(rows, *args):
            calls[name].append(rows)
            return stage(rows, *args)

        return recorded

    return [mock.patch.object(sweeps, name, wrap(name, getattr(sweeps, name))) for name in names], calls


def test_block_edges_keep_every_bit():
    # 19 x 27 = 2 * BLOCK_ROWS + 1 rows: two full blocks and a last block of one row
    cfg = grid_config("tomography-demo", 19, 27, shots=300)
    n = len(cfg.beta_list) * len(cfg.phi_list)
    assert n == 2 * sweeps.BLOCK_ROWS + 1
    blocks = [sweeps.BLOCK_ROWS, sweeps.BLOCK_ROWS, 1]

    stages = [
        "ket_to_density",
        "validate_densities",
        "rotate_density",
        "setting_probabilities",
        "reconstruct",
        "extract_params",
    ]
    patches, calls = recording(stages)
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        kets, betas, phis = sweeps._grid(cfg)
        tallies = sweeps._sample(cfg, kets, sweeps.ket_to_density)
        sweeps.run_tomography_demo(cfg)  # builds the grid's states a second time
    sizes = {name: [len(rows) for rows in calls[name]] for name in stages}
    assert sizes == {
        "ket_to_density": blocks * 2,
        "validate_densities": blocks * 2,
        "rotate_density": blocks,
        "setting_probabilities": blocks,
        "reconstruct": blocks,
        "extract_params": [n],
    }

    whole_kets = np.array([prepare_lr(PreparationSettings(beta, phi)) for beta, phi in zip(betas, phis)])
    assert kets.shape == whole_kets.shape and kets.tobytes() == whole_kets.tobytes()
    whole = validate_densities(noisy_state(ket_to_density(whole_kets), cfg.noise))
    # validate_densities returns the block it is given: each run's blocks are its states
    for run in (calls["validate_densities"][:3], calls["validate_densities"][3:]):
        states = np.concatenate(run)
        assert states.shape == whole.shape and states.tobytes() == whole.tobytes()

    probs = outcome_probs(rotate_density(whole))
    expected = sample_counts(probs, cfg.shots, sweeps.row_generators(cfg.seed, n), cfg.sampling)
    assert tallies.dtype == expected.dtype and tallies.tobytes() == expected.tobytes()

    tables = simulate_tomography(setting_probabilities(whole), cfg.shots, sweeps.row_generators(cfg.seed, n))
    whole_rho_hats = reconstruct(tables)
    (rho_hats,) = calls["extract_params"]
    assert rho_hats.shape == whole_rho_hats.shape and rho_hats.tobytes() == whole_rho_hats.tobytes()


def traced(call):
    """``call()``'s result, the traced bytes still held after it returns, and the peak during it."""
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


def test_grid_and_sample_hold_no_n_row_temporary():
    # 40 x 100 = 4000 rows: (N, 4, 4) states would be 1.02 MB, 16 blocks' worth
    cfg = grid_config("phase-sweep", 40, 100)
    sweeps._sample(cfg, sweeps._grid(cfg)[0], sweeps.ket_to_density)  # first calls may allocate caches
    (kets, betas, phis), kept, peak = traced(lambda: sweeps._grid(cfg))
    assert kets.shape == (4000, 4)
    # beyond the kets and angle columns it returns, the grid holds only the Python lists that fill two ket columns
    assert peak - kept <= kets.nbytes, (peak - kept) / 1e6
    tallies, kept, peak = traced(lambda: sweeps._sample(cfg, kets, sweeps.ket_to_density))
    assert tallies.shape == (4000, 4)
    # the (N, 4) int64 tallies it returns, beside one block's states, readout and draws and
    # one HASH_ROWS pass of seed hashing: no (N, 4, 4) states, no N-row probabilities and no
    # N-row hash pool (before: 692 kB, 5.4 times the tallies; then 509 kB with the probabilities)
    assert peak <= 2 * tallies.nbytes + 6 * BLOCK_BYTES, peak / 1e6


def test_poisson_draws_convert_one_block_at_a_time():
    # 50 x 400 = 20 000 rows: a list of every row's four probabilities as Python
    # floats would add about 190 B per row to the arrays the draw holds
    cfg = grid_config("counts-demo", 50, 400, shots=100_000, sampling="poisson")
    kets = sweeps._grid(cfg)[0]
    sweeps._sample(cfg, kets[: sweeps.BLOCK_ROWS], sweeps.ket_to_density)  # first calls may allocate caches
    tallies, _, peak = traced(lambda: sweeps._sample(cfg, kets, sweeps.ket_to_density))
    assert tallies.shape == (20_000, 4)
    # the (N, 4) tallies, one block's states, probabilities and Python floats and one
    # HASH_ROWS pass of seed hashing (before: 3.49 MB; then 1.58 MB with the N-row
    # probabilities beside the tallies; now about 1.02 MB)
    assert peak <= tallies.nbytes + 7 * BLOCK_BYTES, peak / len(tallies)
    # the rows on either side of a block edge, and the last block's, draw what one row drawn alone does
    probs = outcome_probs(rotate_density(validate_densities(noisy_state(ket_to_density(kets), cfg.noise))))
    block, n = sweeps.BLOCK_ROWS, len(tallies)
    for row in (0, block - 1, block, n // block * block, n - 1):
        rng = row_generator_oracle(cfg.seed, row)
        assert tallies[row].tolist() == sample_counts_oracle(probs[row], cfg.shots, rng, "poisson")


@pytest.mark.parametrize("ideal", [False, True], ids=["noisy", "ideal"])
def test_the_sweeps_validate_their_states_without_eigvalsh(ideal, monkeypatch):
    # the LDL^H screen passes every state the sweeps build, so the eigen-solver stays the exception
    calls, eigvalsh = [], np.linalg.eigvalsh

    def counted(matrices, *args, **kwargs):
        calls.append(len(matrices))
        return eigvalsh(matrices, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for mode in ("multinomial", "poisson"):
        cfg = grid_config("counts-demo", 17, 40, ideal=ideal, shots=100_000, sampling=mode)  # 680 rows: 3 blocks
        assert len(sweeps._sample(cfg, sweeps._grid(cfg)[0], sweeps.ket_to_density)) == 680
    _, rows = sweeps.run_tomography_demo(grid_config("tomography-demo", 4, 6, ideal=ideal, shots=300))
    assert len(list(rows)) == 24
    assert calls == []


@pytest.mark.parametrize("mode", ["multinomial", "poisson"])
def test_a_bad_row_in_the_last_block_raises_before_any_row_draws(mode):
    n = 2 * sweeps.BLOCK_ROWS + 1
    probs = np.full((n, 4), 0.25)
    probs[-1] = (0.5, 0.5, 0.5, 0.5)
    pulled = []

    def rngs():
        for index in range(n):
            pulled.append(index)
            yield np.random.default_rng(index)

    with pytest.raises(ValueError, match="must sum to 1"):
        sample_counts(probs, 100, rngs(), mode)
    assert pulled == []


def test_fit_noise_holds_no_n_row_stack_beside_its_inputs():
    # 40 x 100 = 4000 states: the (N, 4, 4) targets it is handed are 256 B per state
    cfg = grid_config("tomography-demo", 40, 100)
    kets = sweeps._grid(cfg)[0]
    targets = validate_densities(noisy_state(ket_to_density(kets), cfg.noise))
    fit_noise(targets[: sweeps.BLOCK_ROWS], kets[: sweeps.BLOCK_ROWS])  # first calls may allocate caches
    fitted, _, peak = traced(lambda: fit_noise(targets, kets))
    assert fitted.visibility == pytest.approx(cfg.noise.visibility, abs=1e-12)
    # a few (N, 4) columns, at most one targets' worth; the (32 N, 2) design, its
    # right-hand side and lstsq's copies of both peaked at 1073 B per state
    assert peak <= targets.nbytes, peak / len(kets)


def sweep_lists(scenario):
    """The [sweep] lists of a 4000-row ``scenario`` run: a 40 x 100 grid, or 4000 weights."""
    if scenario == "mixture-sweep":
        return f"p_list = {', '.join(map(repr, np.linspace(0.0, 1.0, 4000).tolist()))}\n"
    betas = ", ".join(map(repr, np.linspace(0.1, 1.4, 40).tolist()))
    phis = ", ".join(map(repr, np.linspace(-3.0, 3.0, 100).tolist()))
    return f"beta_list = {betas}\nphi_list = {phis}\n"


POISSON = "[experiment]\nshots = 100000\nsampling = poisson\n"

# Traced bytes per row a 4000-row run may peak at.  Rows of Python objects, the whole
# CSV text, an N-row state stack or per-row estimator tuples would pass them: with
# its (N, 4, 4) states and whole-stack estimator lists a phase-sweep peaked at 997 B
# per row, a mixture-sweep at 958 B and a counts-demo at 433 B (multinomial) and
# 445 B (Poisson).  Tomography keeps its (N, 4, 4) reconstructions: with the
# (32 N, 2) design of an lstsq noise fit beside them it peaked at 1482 B per row,
# and with whole-stack read-off lists in extract_params at 720-760 B.
RUN_BYTES_PER_ROW = {
    "phase-sweep": ("phase-sweep", "", 300),
    "tomography-demo": ("tomography-demo", "", 650),
    "counts-demo": ("counts-demo", "", 250),
    "counts-demo-poisson": ("counts-demo", POISSON, 250),
    "mixture-sweep": ("mixture-sweep", "", 250),
}


@pytest.mark.parametrize("run", RUN_BYTES_PER_ROW)
def test_a_cli_run_holds_a_bounded_working_set_per_row(run, tmp_path):
    command, experiment, bound = RUN_BYTES_PER_ROW[run]
    config = tmp_path / "run.ini"
    config.write_text(f"{experiment}[sweep]\n{sweep_lists(command)}", encoding="utf-8")
    out = tmp_path / "run.csv"
    argv = [command, "--config", str(config), "--out", str(out)]
    assert cli.main(argv) == 0  # first calls may allocate caches
    code, _, peak = traced(lambda: cli.main(argv))
    assert code == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 4001
    assert peak <= bound * 4000, peak / 4000
