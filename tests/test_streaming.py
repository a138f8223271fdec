"""The two streaming properties the pipeline rests on, pinned on whole CLI runs.

Block invariance: the block sizes (``measurement.BLOCK_ROWS`` for the walk,
the estimators and the CSV rows, ``measurement.BLOCK_NODES`` for the lattice
sums, ``sweeps.HASH_ROWS`` for the seed hashing) decide only how the work is
cut, never a byte of the output.  Prefix stability: row i depends only on the
seed, i and its own settings, so a run over the first rows of a grid (or of
a weight list) writes a byte prefix of the longer run's CSV.
"""

from unittest import mock

import pytest

from sloccsim import cli, measurement, sweeps

POISSON = "sampling = poisson\n"
# (subcommand, [experiment] section, [sweep] section): every subcommand, both sampling modes,
# and rows that cross every patched block edge.  shots = 500 gives lattice windows on both
# sides of 2**8 nodes, and 200 000 Poisson shots windows wider than MAX_SPAN (the normal rule).
RUNS = {
    "phase-sweep": ("phase-sweep", "shots = 500\n", "beta_list = 20deg, 45deg, 70deg\nphi_list = -3, -2, -1, 0, 1, 2, 3"),
    "phase-sweep-poisson": ("phase-sweep", "shots = 200000\n" + POISSON, "beta_list = 30deg, 60deg\nphi_list = 0, 1, 2, 3"),
    "beta-sweep": ("beta-sweep", "shots = 500\n", "beta_list = 10deg, 25deg, 40deg, 55deg, 70deg, 85deg\nphi_list = 0.4, 2"),
    "mixture-sweep": ("mixture-sweep", "shots = 500\n", "p_list = 0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1"),
    "mixture-sweep-poisson": ("mixture-sweep", "shots = 2000\n" + POISSON, "p_list = 0, 0.2, 0.4, 0.5, 0.6, 0.8, 1"),
    "calibrate-plate": ("calibrate-plate", "", "x_list = 0mm, 1mm, 2mm, 3mm, 4mm"),
    "counts-demo": ("counts-demo", "shots = 500\n", "beta_list = 15deg, 45deg, 75deg\nphi_list = 0, 1, 2, 3, 4"),
    "counts-demo-poisson": ("counts-demo", "shots = 500\n" + POISSON, "beta_list = 15deg, 75deg\nphi_list = 0, 1, 2, 3, 4"),
    "tomography-demo": ("tomography-demo", "shots = 300\n", "beta_list = 30deg, 50deg\nphi_list = 0, 1, 2, 3, 4"),
}

# (BLOCK_ROWS, BLOCK_NODES, HASH_ROWS): one-row blocks, primes, a block longer than any
# run, and one-row hash passes under the default block
BLOCK_SIZES = [(1, 1 << 14, 1), (3, 1 << 14, 5), (7, 1 << 8, 7), (1000, 1 << 14, 1000), (256, 1 << 14, 1)]


def csv_of(command, experiment, sweep, tmp_path):
    """The CSV bytes ``sloccsim command`` writes for an [experiment] and a [sweep] section."""
    config, out = tmp_path / "run.ini", tmp_path / "run.csv"
    config.write_text(f"[experiment]\n{experiment}[sweep]\n{sweep}\n", encoding="utf-8")
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    return out.read_bytes()


def test_block_sizes_leave_every_byte(tmp_path):
    expected = {run: csv_of(*RUNS[run], tmp_path) for run in RUNS}
    for rows, nodes, hashed in BLOCK_SIZES:
        # sweeps binds its own BLOCK_ROWS, which only cuts the CSV text into writes
        with mock.patch.object(measurement, "BLOCK_ROWS", rows), mock.patch.object(
            measurement, "BLOCK_NODES", nodes
        ), mock.patch.object(sweeps, "HASH_ROWS", hashed), mock.patch.object(sweeps, "BLOCK_ROWS", rows):
            for run in RUNS:
                assert csv_of(*RUNS[run], tmp_path) == expected[run], (run, rows, nodes, hashed)


def grid(n_beta):
    return f"beta_list = {', '.join(['20deg', '35deg', '55deg', '70deg'][:n_beta])}\nphi_list = -2, 0.5, 1, 3"


def weights(n):
    return f"p_list = {', '.join(['0.2', '0.9', '0.5', '0'][:n])}"


# (subcommand, [experiment] section, the short [sweep] section, the long one)
PREFIX_RUNS = {
    "phase-sweep": ("phase-sweep", "shots = 500\n", grid(2), grid(4)),
    "phase-sweep-poisson": ("phase-sweep", "shots = 500\n" + POISSON, grid(2), grid(4)),
    "counts-demo": ("counts-demo", "shots = 500\n", grid(2), grid(4)),
    "mixture-sweep": ("mixture-sweep", "shots = 500\n", weights(2), weights(4)),
}


@pytest.mark.parametrize("run", PREFIX_RUNS)
def test_a_shorter_run_writes_a_prefix_of_the_longer_one(run, tmp_path):
    """A 2 x 4 grid's CSV is a byte prefix of the 4 x 4 grid's, and 2 weights' of 4 weights'.

    tomography-demo is left out by design: its fitted noise columns are fitted
    to every state of the run, so adding states changes every row.
    """
    command, experiment, short, long = PREFIX_RUNS[run]
    head, whole = csv_of(command, experiment, short, tmp_path), csv_of(command, experiment, long, tmp_path)
    assert head.count(b"\n") == 1 + (2 if run == "mixture-sweep" else 8)
    assert whole.startswith(head) and len(whole) > len(head)
