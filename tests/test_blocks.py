"""The sweeps run their per-row stages in ``sweeps.BLOCK_ROWS``-row blocks.

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
from sloccsim.noise import noisy_state
from sloccsim.slocc import PreparationSettings, lr_kets
from sloccsim.states import ket_to_density, validate_densities
from sloccsim.tomography import reconstruct, setting_probabilities, simulate_tomography

from oracles import row_generator_oracle, sample_counts_oracle

# one (BLOCK_ROWS, 4, 4) complex128 block: 64 KiB
BLOCK_BYTES = sweeps.BLOCK_ROWS * 4 * 4 * 16


def grid_config(scenario, n_beta, n_phi, **fields):
    """``scenario`` on an n_beta x n_phi grid of distinct angles."""
    cfg = resolve(ExperimentConfig(**fields), scenario=scenario)
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

    stages = ["ket_to_density", "rotate_density", "setting_probabilities", "reconstruct", "extract_params"]
    patches, calls = recording(stages)
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        grid, states = sweeps._grid(cfg)
        tallies = sweeps._sample(cfg, states)
        sweeps.run_tomography_demo(cfg)  # builds the grid's states a second time
    sizes = {name: [len(rows) for rows in calls[name]] for name in stages}
    assert sizes == {
        "ket_to_density": blocks * 2,
        "rotate_density": blocks,
        "setting_probabilities": blocks,
        "reconstruct": blocks,
        "extract_params": [n],
    }

    kets = lr_kets([PreparationSettings(beta, phi) for beta, phi in grid])
    whole = validate_densities(noisy_state(ket_to_density(kets), cfg.noise))
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
    # 40 x 100 = 4000 rows: the (N, 4, 4) states are 1.02 MB, 16 blocks' worth
    cfg = grid_config("phase-sweep", 40, 100)
    sweeps._sample(cfg, sweeps._grid(cfg)[1])  # first calls may allocate caches
    (grid, states), kept, peak = traced(lambda: sweeps._grid(cfg))
    assert len(states) == 4000
    # beyond the states and rows it returns, the grid holds its (N, 4) kets and a few blocks' temporaries
    kets_bytes = len(states) * 4 * 16
    assert peak - kept <= kets_bytes + 8 * BLOCK_BYTES, (peak - kept) / 1e6
    tallies, kept, peak = traced(lambda: sweeps._sample(cfg, states))
    assert tallies.shape == (4000, 4)
    # the (N, 4) int64 tallies it returns, the (N, 4) probabilities, and the rows' PCG64 words
    # and their hashing: a few (N, 4) arrays in all, and no Python object per row
    assert peak <= 6 * tallies.nbytes, peak / 1e6


def test_poisson_draws_convert_one_block_at_a_time():
    # 50 x 400 = 20 000 rows: a list of every row's four probabilities as Python
    # floats would add about 190 B per row to the arrays the draw holds
    cfg = grid_config("counts-demo", 50, 400, shots=100_000, sampling="poisson")
    states = sweeps._grid(cfg)[1]
    sweeps._sample(cfg, states[: sweeps.BLOCK_ROWS])  # first calls may allocate caches
    tallies, _, peak = traced(lambda: sweeps._sample(cfg, states))
    assert tallies.shape == (20_000, 4)
    # the few (N, 4) arrays of a multinomial draw, and one block's Python floats
    assert peak <= 6 * tallies.nbytes, peak / len(tallies)
    # the rows on either side of a block edge, and the last block's, draw what one row drawn alone does
    probs = outcome_probs(rotate_density(states))
    block, n = sweeps.BLOCK_ROWS, len(tallies)
    for row in (0, block - 1, block, n // block * block, n - 1):
        rng = row_generator_oracle(cfg.seed, row)
        assert tallies[row].tolist() == sample_counts_oracle(probs[row], cfg.shots, rng, "poisson")


# Traced bytes per row a 4000-row run may peak at: rows of Python objects, the whole
# CSV text or a second N-row state stack beside the estimators would pass them.
RUN_BYTES_PER_ROW = {"phase-sweep": 1150, "tomography-demo": 2500}


@pytest.mark.parametrize("command", RUN_BYTES_PER_ROW)
def test_a_cli_run_holds_a_bounded_working_set_per_row(command, tmp_path):
    # 40 x 100 = 4000 rows, written to --out
    betas = ", ".join(map(repr, np.linspace(0.1, 1.4, 40).tolist()))
    phis = ", ".join(map(repr, np.linspace(-3.0, 3.0, 100).tolist()))
    config = tmp_path / "grid.ini"
    config.write_text(f"[sweep]\nbeta_list = {betas}\nphi_list = {phis}\n", encoding="utf-8")
    out = tmp_path / "grid.csv"
    argv = [command, "--config", str(config), "--out", str(out)]
    assert cli.main(argv) == 0  # first calls may allocate caches
    code, _, peak = traced(lambda: cli.main(argv))
    assert code == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 4001
    assert peak <= RUN_BYTES_PER_ROW[command] * 4000, peak / 4000
