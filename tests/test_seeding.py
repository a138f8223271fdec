"""The vectorised row seeding reproduces numpy's per-row SeedSequence streams.

Every sweep row draws from ``default_rng(SeedSequence([seed, row]).generate_state(1,
uint64)[0])``; ``row_seeds`` and ``row_generators`` reach the same seeds and
starting states without a SeedSequence per row.  Any difference would move
every count, so the references are numpy's own objects
(``oracles.row_seeds_oracle``, ``oracles.row_generator_oracle``).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sloccsim import sweeps
from sloccsim.cli import main
from sloccsim.sweeps import _seed_sequence, point_seeds, row_generators, row_seeds

from oracles import row_generator_oracle, row_seeds_oracle

SEEDS = st.integers(min_value=0, max_value=2**64 - 1)
COUNTS = st.sampled_from([1, 2, 3])
# the examples force the ends of u64 and 2**32, where the seed's entropy
# grows from one uint32 word to two


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, count=COUNTS)
@example(seed=0, count=1)
@example(seed=2**32 - 1, count=2)
@example(seed=2**32, count=3)
@example(seed=2**32, count=1)
@example(seed=2**64 - 1, count=3)
def test_row_seeds_match_seed_sequence(seed, count):
    seeds = row_seeds(seed, 12, count)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [row_seeds_oracle(seed, i, count) for i in range(12)]
    assert point_seeds(seed, 11, count) == row_seeds_oracle(seed, 11, count)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS)
@example(seed=0)
@example(seed=2**32 - 1)
@example(seed=2**32)
@example(seed=2**64 - 1)
def test_row_generators_start_where_default_rng_does(seed):
    # every row's Generator stays at its own start while later rows are yielded
    yielded = list(row_generators(seed, 8))
    assert len(yielded) == 8
    for index, rng in enumerate(yielded):
        assert_at_row_start(rng, seed, index)


def assert_at_row_start(rng, seed, index):
    reference = row_generator_oracle(seed, index)
    assert rng.bit_generator.state == reference.bit_generator.state
    assert rng.integers(0, 2**63, size=3).tolist() == reference.integers(0, 2**63, size=3).tolist()


@pytest.mark.parametrize("seed", [0, 2**32, 2**64 - 1])
def test_row_generators_cross_the_hash_pass_edge(seed):
    # row HASH_ROWS - 1 ends the first hash pass; row HASH_ROWS, the last, is the second pass
    checked = []
    for index, rng in enumerate(row_generators(seed, sweeps.HASH_ROWS + 1)):
        if index in (0, sweeps.HASH_ROWS - 1, sweeps.HASH_ROWS):
            assert_at_row_start(rng, seed, index)
            checked.append(index)
    assert checked == [0, sweeps.HASH_ROWS - 1, sweeps.HASH_ROWS]


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS)
@example(seed=2**32 - 1)
@example(seed=2**32)
def test_first_seed_column_does_not_depend_on_count(seed):
    # a second substream per row (count=2) must leave every existing draw unmoved
    first = row_seeds(seed, 5, 1)[:, 0]
    for count in (2, 3):
        assert np.array_equal(row_seeds(seed, 5, count)[:, 0], first)


@settings(max_examples=60, deadline=None)
@given(word=st.integers(min_value=0, max_value=2**32 - 1))
@example(word=0)
def test_zero_high_word_hashes_like_a_one_word_seed(word):
    # a count seed below 2**32 is one entropy word to numpy, two words (high 0) here
    padded = _seed_sequence(np.array([[word, 0]], dtype=np.uint32), 8)[0]
    reference = np.random.SeedSequence(word).generate_state(8, dtype=np.uint32)
    assert padded.tolist() == reference.tolist()


def test_empty_run_yields_no_rows():
    assert row_seeds(3, 0).shape == (0, 1)
    assert list(row_generators(3, 0)) == []


@pytest.mark.parametrize("n", [2**32, 2**40, -1])
def test_row_count_beyond_one_index_word_is_rejected(n):
    with pytest.raises(ValueError, match="row count"):
        row_seeds(0, n)
    with pytest.raises(ValueError, match="row count"):
        next(row_generators(0, n))


@pytest.mark.parametrize("index", [2**32, -1])
def test_point_index_beyond_one_word_is_rejected(index):
    with pytest.raises(ValueError, match="row count"):
        point_seeds(0, index)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_u64_is_rejected(seed):
    with pytest.raises(ValueError, match="seed"):
        row_seeds(seed, 2)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_empty_run_checks_the_seed_as_row_seeds_does(seed):
    # an empty run makes no hash pass, which checked the seed
    with pytest.raises(ValueError) as expected:
        row_seeds(seed, 0)
    assert str(expected.value) == f"seed must be an integer in [0, 2**64 - 1], got {seed}"
    with pytest.raises(ValueError) as got:
        list(row_generators(seed, 0))
    assert str(got.value) == str(expected.value)


# every golden digest and bench config seeds below 2**32, a one-word seed
TWO_WORD_RUNS = {
    "counts-demo-poisson": (
        "counts-demo",
        "[experiment]\nshots = 400\nsampling = poisson\n[sweep]\nbeta_list = 20deg, 45deg\n",
    ),
    "tomography-demo": ("tomography-demo", "[experiment]\nshots = 300\n[sweep]\nphi_list = 0, 90deg, 200deg\n"),
}


def oracle_row_generators(seed, n):
    return (row_generator_oracle(seed, index) for index in range(n))


@pytest.mark.parametrize("seed", [2**32, 2**64 - 1])
@pytest.mark.parametrize("case", TWO_WORD_RUNS)
def test_two_word_seed_runs_match_per_row_default_rng(case, seed, tmp_path, capsys, monkeypatch):
    command, body = TWO_WORD_RUNS[case]
    config = tmp_path / "run.ini"
    config.write_text(body, encoding="utf-8")
    args = [command, "--config", str(config), "--seed", str(seed)]
    assert main(args) == 0
    fast = capsys.readouterr().out
    monkeypatch.setattr(sweeps, "row_generators", oracle_row_generators)
    assert main(args) == 0
    reference = capsys.readouterr().out
    assert fast.count("\n") >= 4
    assert fast == reference
