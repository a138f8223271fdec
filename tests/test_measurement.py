import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sloccsim import (
    LowIndistinguishabilityError,
    PreparationSettings,
    TallyRowError,
    estimate_p,
    estimate_phase,
    ket_to_density,
    outcome_probs,
    prepare_lr,
    rotate_density,
    sample_counts,
)
from sloccsim import measurement, mixture
from sloccsim.config import ExperimentConfig, resolve
from sloccsim.measurement import ROTATION_PAIR, SAMPLING_MODES, bootstrap_zz, read_tallies
from sloccsim.sweeps import row_generators, run_scenario
from sloccsim.states import DensityMatrix4

import oracles
from oracles import (
    ROTATION_SINGLE,
    agrees_up_to_phase,
    apply_rotation,
    bootstrap_zz_multinomial,
    estimate_p_oracle,
    estimate_phase_oracle,
    expectation_oracle,
    phase_spread_oracle,
    rotation_matrix_by_kron,
    row_generator_oracle,
    tally_with_zz,
)
from physics import expectation_zz

SQ2 = math.sqrt(0.5)


def read_row(counts):
    """One tally row's (zz_hat, zz_sigma), read as a one-row stack."""
    _, zz_hat, zz_sigma = read_tallies([counts], "read_tallies takes a stack of N tally rows")
    return zz_hat[0], zz_sigma[0]


def draw(probs, total, seed, mode="multinomial"):
    """One row's tallies from the stacked sampler, on a fresh generator."""
    rng = np.random.default_rng(seed)
    return sample_counts(np.array([probs], dtype=np.float64), total, [rng], mode)[0].tolist()


def random_density(rng, n_terms=3):
    weights = rng.dirichlet(np.ones(n_terms))
    rho = np.zeros((4, 4), dtype=np.complex128)
    for w in weights:
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        rho += w * np.outer(v, v.conj())
    return DensityMatrix4(rho)


def test_rotation_constants_match_kron_oracle():
    assert np.allclose(ROTATION_PAIR, rotation_matrix_by_kron(), atol=1e-15)
    product = ROTATION_SINGLE @ ROTATION_SINGLE
    assert np.allclose(product, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)
    assert np.allclose(ROTATION_PAIR @ ROTATION_PAIR.conj().T, np.eye(4), atol=0.0)


def test_apply_rotation_on_basis_state():
    out = apply_rotation([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(out, [0.5, 0.5, 0.5, 0.5], atol=1e-15)


def test_apply_rotation_on_bell_state():
    bell = prepare_lr(PreparationSettings(math.pi / 4, 0.0))
    rotated = apply_rotation(bell)
    target = np.array([1.0, 0.0, 0.0, -1.0]) * SQ2
    assert agrees_up_to_phase(rotated, target, atol=1e-12)


def test_rotate_density_matches_ket_rotation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        ket = v / np.linalg.norm(v)
        via_ket = ket_to_density(apply_rotation(ket))
        via_rho = rotate_density(ket_to_density(ket))
        assert np.allclose(via_ket, via_rho, atol=1e-12)


# exact zeros, a subnormal, and entries at scales far from 1, where a changed rounding shows
SPECIAL_ENTRIES = (0.0, -0.0, 5e-324, -5e-324)


@settings(max_examples=120, deadline=None)
@given(
    shape=st.one_of(
        st.just((4, 4)),
        st.just((2, 3, 4, 4)),
        st.integers(min_value=1, max_value=600).map(lambda n: (n, 4, 4)),
    ),
    scale=st.sampled_from([1.0, 1e-300, 1e300, 1e-150]),
    special_share=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(shape=(257, 4, 4), scale=1.0, special_share=0.3, seed=0)
@example(shape=(1, 4, 4), scale=1e300, special_share=0.0, seed=1)
def test_rotate_density_keeps_the_per_matrix_bits(shape, scale, special_share, seed):
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(2):  # real and imaginary parts, each with its own specials
        part = rng.normal(size=shape) * scale
        mask = rng.random(shape) < special_share
        part[mask] = rng.choice(SPECIAL_ENTRIES, size=int(mask.sum()))
        parts.append(part)
    matrices = parts[0] + 1j * parts[1]
    got = rotate_density(matrices)
    expected = oracles.rotate_density_oracle(matrices)
    assert got.shape == shape and got.dtype == np.complex128
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_outcome_probs_of_rotated_bell():
    rho = rotate_density(ket_to_density(prepare_lr(PreparationSettings(math.pi / 4, 0.0))))
    assert np.allclose(outcome_probs(rho), [0.5, 0.0, 0.0, 0.5], atol=1e-12)
    assert expectation_zz(rho) == pytest.approx(1.0, abs=1e-12)


def test_outcome_probs_validation():
    # the stack is checked once, before any row draws; one bad row anywhere fails it
    good = (0.25, 0.25, 0.25, 0.25)
    for bad, message in [
        ((0.5, 0.5, 0.2, -0.2), r"must lie in \[0, 1\]"),
        ((0.5, 0.5, 0.5, 0.5), "must sum to 1"),
    ]:
        for stack in ([bad], [good, bad, good]):
            rngs = [np.random.default_rng(0) for _ in stack]
            with pytest.raises(ValueError, match=message):
                sample_counts(np.array(stack), 100, rngs)
            fresh = np.random.default_rng(0).bit_generator.state
            assert all(rng.bit_generator.state == fresh for rng in rngs)
    # each row must sum to 1, not the stack on average
    with pytest.raises(ValueError, match="must sum to 1"):
        sample_counts(np.array([(0.25, 0.25, 0.0, 0.0), (0.5, 0.5, 0.25, 0.25)]), 100, [None, None])


def test_outcome_probs_rejects_nan():
    # a NaN compares false both ways, so it must fail the range test itself
    for mode in ("multinomial", "poisson"):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            draw((math.nan, 0.5, 0.25, 0.25), 100, seed=0, mode=mode)


@pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4,)])
def test_outcome_probs_rejects_a_wrong_trailing_shape(shape):
    # a (3, 3) matrix gave three "probabilities"
    rotated = np.eye(3) / 3.0 if shape == (3, 3) else np.full(shape, 0.25)
    with pytest.raises(ValueError, match=rf"^rotated states must have shape \(\.\.\., 4, 4\), got {re.escape(str(shape))}$"):
        outcome_probs(rotated)


@pytest.mark.parametrize("mode", SAMPLING_MODES)
def test_sample_counts_takes_integer_shots_only(mode):
    # 10.5 drew 10 pairs; a numpy integer is an integer
    probs = (0.4, 0.1, 0.2, 0.3)
    for shots in (10.5, 10.0, np.float64(10.0)):
        with pytest.raises(ValueError, match=rf"^shots must be an integer in \[1, 2\*\*63 - 1\], got {shots}$"):
            draw(probs, shots, seed=3, mode=mode)
    assert draw(probs, np.int64(10), seed=3, mode=mode) == draw(probs, 10, seed=3, mode=mode)


def test_outcome_probs_rejects_a_nan_density():
    # NaN compares false both ways, so each check must be one that NaN fails
    rho = rotate_density(ket_to_density(prepare_lr(PreparationSettings(math.pi / 4, 1.0))))
    for entry in [(0, 0), (2, 2), (1, 3)]:
        stack = np.array([rho, rho])
        stack[1][entry] = math.nan
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="negative beyond tolerance"):
                outcome_probs(rotate_density(stack))


def test_expectation_matches_trace_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        rho = random_density(rng)
        expected = expectation_oracle(rho.matrix)
        assert expectation_zz(rho.matrix) == pytest.approx(expected, abs=1e-12)


def test_correlation_identity_on_grid():
    for beta_deg in (10, 20, 30, 45, 60, 80):
        beta = math.radians(beta_deg)
        for phi in np.arange(0.0, 2.0 * math.pi + 1e-9, math.pi / 6):
            rho = rotate_density(ket_to_density(prepare_lr(PreparationSettings(beta, phi))))
            assert expectation_zz(rho) == pytest.approx(
                math.sin(2 * beta) * math.cos(phi), abs=1e-12
            )


def test_correlation_frozen_point():
    rho = rotate_density(
        ket_to_density(prepare_lr(PreparationSettings(math.radians(20), math.pi / 3)))
    )
    assert expectation_zz(rho) == pytest.approx(0.32139380484326974, abs=1e-12)


def test_correlation_band():
    # |zz| can never exceed sin(2 beta), whatever the phase
    rng = np.random.default_rng(3)
    for _ in range(200):
        beta = rng.uniform(0.0, math.pi / 2)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        rho = rotate_density(ket_to_density(prepare_lr(PreparationSettings(beta, phi))))
        assert abs(expectation_zz(rho)) <= math.sin(2 * beta) + 1e-12


TALLY_READERS = {
    "read_tallies": read_row,
    "bootstrap_zz": lambda counts: bootstrap_zz(counts, 10, 1),
    "estimate_phase": lambda counts: estimate_phase([counts], [math.pi / 4], 1.0),
    "estimate_p": lambda counts: estimate_p([counts], 0.0, math.pi, math.pi / 4, 1.0),
}

SHAPE_ERRORS = {
    "read_tallies": "read_tallies takes a stack of N tally rows",
    "bootstrap_zz": "bootstrap_zz takes one tally row (n13, n14, n23, n24)",
    "estimate_phase": "estimate_phase takes a stack of N tally rows and N angles",
    "estimate_p": "estimate_p takes a stack of N tally rows",
}


def test_counts_validation():
    # a tally row carries no total of its own: it is the exact sum of the channels
    assert read_row((600, 100, 100, 200))[0] == pytest.approx(0.6)
    assert read_row(np.array([1, 2, 3, 4], dtype=np.int64))[0] == 0.0
    for name, reader in TALLY_READERS.items():
        for bad in [(-1, 0, 0, 1), (1.5, 0, 0, 1), (1, 0, 0, np.int64(-2)), (1, 0, 0, None), (1, 0, 0, math.inf)]:
            with pytest.raises(ValueError, match="counts must be nonnegative integers"):
                reader(bad)
        with pytest.raises(ValueError, match="^cannot estimate from zero counts$"):
            reader((0, 0, 0, 0))
        # every reader reads its row through read_tallies: bootstrap_zz leaked a bare unpack error
        with pytest.raises(ValueError) as info:
            reader((1, 2, 3))
        assert info.type is ValueError
        assert str(info.value) == SHAPE_ERRORS[name]


@settings(max_examples=200, deadline=None)
@given(
    row=st.tuples(*[st.integers(0, 2**70)] * 4).filter(any),
    beta=st.floats(0.01, math.pi / 2 - 0.01),
    visibility=st.floats(1e-3, 1.0),
)
@example(row=(2**64, 3, 2**63 + 5, 0), beta=math.pi / 4, visibility=1.0)
@example(row=(0, 0, 0, 1), beta=0.3, visibility=0.977)
def test_estimators_derive_zz_from_the_row_as_the_tally_readers_do(row, beta, visibility):
    zz_hat, zz_sigma = (value.hex() for value in read_row(row))
    phase = estimate_phase([row], [beta], visibility)
    assert phase.zz_hat[0].hex() == zz_hat
    assert phase.zz_sigma[0].hex() == zz_sigma
    assert estimate_p([row], 0.0, math.pi, beta, visibility).zz_hat[0].hex() == zz_hat


@pytest.mark.parametrize("scenario", ["phase-sweep", "mixture-sweep"])
def test_phase_and_mixture_rows_are_read_once(scenario, monkeypatch):
    reads = []
    original = measurement.read_tallies

    def counted(tallies, *args):
        reads.extend(tallies)
        return original(tallies, *args)

    # read_tallies is the one tally reader, whichever estimator reads the stack; mixture
    # imports it by name
    monkeypatch.setattr(measurement, "read_tallies", counted)
    monkeypatch.setattr(mixture, "read_tallies", counted)
    rows = list(run_scenario(resolve(ExperimentConfig(shots=200), scenario))[1])
    assert len(reads) == len(rows)


def test_sample_counts_deterministic():
    probs = (0.4, 0.1, 0.2, 0.3)
    a = draw(probs, 5000, seed=7)
    b = draw(probs, 5000, seed=7)
    c = draw(probs, 5000, seed=8)
    assert a == b
    assert a != c
    assert sum(a) == 5000


def test_sample_counts_concentrates():
    probs = (0.4, 0.1, 0.2, 0.3)
    counts = draw(probs, 1_000_000, seed=1)
    freq = np.array(counts) / sum(counts)
    assert np.max(np.abs(freq - probs)) < 5e-3


def test_sample_counts_poisson_mode():
    probs = (0.25, 0.25, 0.25, 0.25)
    tally = sample_counts(np.array([probs]), 5000, [np.random.default_rng(2)], mode="poisson")
    assert tally.dtype == np.int64 and tally.shape == (1, 4)
    assert abs(int(tally.sum()) - 5000) < 500
    with pytest.raises(ValueError, match=r"^sampling must be one of \('multinomial', 'poisson'\), got 'uniform'$"):
        draw(probs, 5000, seed=2, mode="uniform")
    with pytest.raises(ValueError, match=r"^shots must be an integer in \[1, 2\*\*63 - 1\], got 0$"):
        draw(probs, 0, seed=2)


@pytest.mark.parametrize("mode", SAMPLING_MODES)
def test_sample_counts_rejects_shots_past_int64_in_both_modes(mode):
    # multinomial mode overflowed inside numpy, and poisson mode drew
    for shots in (2**63, 2**70):
        with pytest.raises(ValueError, match=rf"^shots must be an integer in \[1, 2\*\*63 - 1\], got {shots}$"):
            draw((0.25, 0.25, 0.25, 0.25), shots, seed=1, mode=mode)


def test_sample_counts_takes_one_generator_per_row():
    probs = np.array([(0.4, 0.1, 0.2, 0.3)] * 3)
    with pytest.raises(ValueError, match="shape"):
        sample_counts(probs[0], 100, [np.random.default_rng(0)])
    for rngs in ([np.random.default_rng(0)] * 2, [np.random.default_rng(0)] * 4):
        with pytest.raises(ValueError, match="zip"):
            sample_counts(probs, 100, rngs)


@pytest.mark.parametrize(
    "probs, total",
    [
        ((0.4, 0.1, 0.2, 0.3), 5000),
        ((0.5, 0.0, 0.0, 0.5), 5000),  # lam = 0 draws nothing from the stream
        ((0.0, 0.25, 0.75, 0.0), 3),
        ((0.97, 0.01, 0.01, 0.01), 10**12),
    ],
)
def test_poisson_channels_drawn_one_by_one_match_the_array_draw(probs, total):
    # the per-channel scalar draws must consume the stream exactly as one array call
    p = np.array(probs) / np.sum(probs)
    for seed in range(50):
        reference = np.random.default_rng(seed)
        expected = reference.poisson(total * p).tolist()
        rng = np.random.default_rng(seed)
        counts = sample_counts(np.array([probs]), total, [rng], mode="poisson")
        assert counts[0].tolist() == expected
        assert rng.bit_generator.state == reference.bit_generator.state
        assert counts[0].tolist() == draw(probs, total, seed, mode="poisson")


@pytest.mark.parametrize("mode", SAMPLING_MODES)
@pytest.mark.parametrize("n", [0, 1, 255, 256, 257])
def test_sample_counts_equals_the_per_row_chain(n, mode):
    rng = np.random.default_rng(n)
    probs = rng.dirichlet(np.ones(4), size=n)
    probs[rng.random((n, 4)) < 0.1] = 0.0  # exact zeros draw nothing in poisson mode
    probs /= probs.sum(axis=1, keepdims=True)
    rngs = list(row_generators(11, n))
    tallies = sample_counts(probs, 10**6, rngs, mode)
    assert tallies.dtype == np.int64 and tallies.shape == (n, 4)
    for row in range(n):
        reference = row_generator_oracle(11, row)
        assert tallies[row].tolist() == oracles.sample_counts_oracle(probs[row], 10**6, reference, mode)
        assert rngs[row].bit_generator.state == reference.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(
    total=st.one_of(
        st.sampled_from([1, 2**53 - 1, 2**53 + 1, 2**63 - 1]), st.integers(min_value=1, max_value=2**63 - 1)
    ),
    probs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4),
)
@example(total=2**53 + 1, probs=[0.1, 0.2, 0.3, 0.4])
@example(total=2**63 - 1, probs=[1.0, 5e-324, 0.0, 0.7])
def test_stack_poisson_means_round_as_the_per_channel_products(total, probs):
    # a total below 2**63 converts to the same double in numpy and in Python
    row = np.array([probs, probs[::-1]])
    got = (total * row).tolist()
    assert [[v.hex() for v in means] for means in got] == [[(total * v).hex() for v in p] for p in row.tolist()]


def test_poisson_mean_beyond_the_sampler_range_is_rejected():
    # a ValueError, which the CLI reports with exit 3
    with pytest.raises(ValueError, match="lam value too large"):
        draw((1.0, 0.0, 0.0, 0.0), 2**63 - 1, seed=1, mode="poisson")


def test_estimate_zz():
    counts = (600, 100, 100, 200)
    assert read_row(counts)[0] == pytest.approx(0.6)


def test_bootstrap_zz_shape_and_determinism():
    counts = (600, 100, 100, 200)
    a = bootstrap_zz(counts, 500, seed=3)
    b = bootstrap_zz(counts, 500, seed=3)
    assert a.shape == (500,)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= 1.0)


def counts_with(total, same):
    """Tallies with n13 + n24 = same, spread over all four channels."""
    other = total - same
    return (same - same // 3, other // 4, other - other // 4, same // 3)


@pytest.mark.parametrize("q", [0.0, 0.3, 0.5, 1.0])
def test_binomial_bootstrap_matches_multinomial_moments(q):
    # zz* = 2 S*/N - 1 with S* ~ Bin(N, q): mean 2q - 1, sd 2 sqrt(q(1 - q)/N)
    total, n_boot = 1000, 200_000
    counts = counts_with(total, round(q * total))
    mean = 2.0 * q - 1.0
    sd = 2.0 * math.sqrt(q * (1.0 - q) / total)
    for sample in (
        bootstrap_zz(counts, n_boot, seed=11),
        bootstrap_zz_multinomial(counts, n_boot, seed=12),
    ):
        if sd == 0.0:
            assert np.all(sample == mean)
            continue
        # standard error of a sample sd: sd * sqrt((excess kurtosis + 2) / (4 n))
        kurtosis = (1.0 - 6.0 * q * (1.0 - q)) / (total * q * (1.0 - q))
        assert abs(sample.mean() - mean) <= 6.0 * sd / math.sqrt(n_boot)
        assert abs(sample.std(ddof=1) - sd) <= 6.0 * sd * math.sqrt((kurtosis + 2.0) / (4 * n_boot))


channel = st.integers(0, 10**6)
seeds = st.integers(0, 2**64 - 1)


@settings(max_examples=60, deadline=None)
@given(
    channels=st.tuples(channel, channel, channel, channel).filter(lambda c: sum(c) > 0),
    n_boot=st.integers(1, 300),
    seed=seeds,
)
def test_bootstrap_resamples_lie_on_the_count_lattice(channels, n_boot, seed):
    total = sum(channels)
    resamples = bootstrap_zz(channels, n_boot, seed)
    k = np.rint((resamples + 1.0) * total / 2.0)
    assert np.all((k >= 0) & (k <= total))
    assert np.array_equal(resamples, (2.0 * k - total) / total)
    assert np.array_equal(resamples, bootstrap_zz(channels, n_boot, seed))


@settings(max_examples=40, deadline=None)
@given(
    pair=st.tuples(channel, channel).filter(lambda c: sum(c) > 0),
    all_same=st.booleans(),
    seed=seeds,
)
def test_bootstrap_is_exact_when_one_channel_pair_is_empty(pair, all_same, seed):
    a, b = pair
    if all_same:  # q = 1
        counts, zz = (a, 0, 0, b), 1.0
    else:  # q = 0
        counts, zz = (0, a, b, 0), -1.0
    assert np.all(bootstrap_zz(counts, 200, seed) == zz)


def test_bootstrap_does_not_overflow_at_the_largest_total():
    # totals near 2**63: every resample stays exact and inside [-1, 1]
    counts = (2**62, 0, 0, 2**62 - 1)
    assert np.all(bootstrap_zz(counts, 100, seed=1) == 1.0)
    counts = (2**61, 2**61, 2**61, 2**61 - 1)
    assert np.all(np.abs(bootstrap_zz(counts, 100, seed=1)) < 1e-6)


def sd_tolerance(sample, sd):
    # six standard errors of a sample sd: sd * sqrt((excess kurtosis + 2) / (4 n))
    dev = sample - sample.mean()
    kurtosis = np.mean(dev**4) / np.mean(dev**2) ** 2 - 3.0
    return 6.0 * sd * math.sqrt((kurtosis + 2.0) / (4 * sample.size))


@pytest.mark.parametrize("q", [0.02, 0.3, 0.5, 0.9])
def test_zz_sigma_is_the_bootstrap_sd(q):
    counts = counts_with(1000, round(q * 1000))
    zz_sigma = estimate_phase([counts], [math.pi / 4], 1.0).zz_sigma[0]
    assert zz_sigma == read_row(counts)[1] == pytest.approx(2.0 * math.sqrt(q * (1 - q) / 1000))
    resamples = bootstrap_zz(counts, 200_000, seed=21)
    assert abs(resamples.std(ddof=1) - zz_sigma) <= sd_tolerance(resamples, zz_sigma)


# (total, n13 + n24, visibility at beta = pi/4, so the scale is the visibility)
PHASE_SPREAD_CASES = {
    "interior": (5000, 3000, 0.9),
    "interior-small-total": (400, 260, 0.8),
    "near-clamp": (5000, 4942, 0.977),  # zz_hat 0.9768, the scale within 0.1 sigma
    "near-clamp-small-total": (400, 396, 0.98),
    "near-clamp-negative": (5000, 60, 0.977),
    "fixed-nodes": (200_000, 150_000, 0.6),  # the 24-sigma window spans 4648 counts
    "fixed-nodes-near-clamp": (200_000, 150_000, 0.501),
}


@pytest.mark.parametrize("case", sorted(PHASE_SPREAD_CASES))
def test_phi_sigma_matches_the_bootstrap_oracle(case):
    total, same, scale = PHASE_SPREAD_CASES[case]
    counts = counts_with(total, same)
    sigma = estimate_phase([counts], [math.pi / 4], scale).sigma[0]
    phis = np.arccos(np.clip(bootstrap_zz(counts, 200_000, seed=23) / scale, -1.0, 1.0))
    assert sigma > 0.0
    assert abs(phis.std(ddof=1) - sigma) <= sd_tolerance(phis, sigma)


@pytest.mark.parametrize("case", ["fixed-nodes", "fixed-nodes-near-clamp"])
def test_fixed_node_rule_agrees_with_the_lattice_sum(case, monkeypatch):
    total, same, scale = PHASE_SPREAD_CASES[case]
    counts = counts_with(total, same)
    nodes = estimate_phase([counts], [math.pi / 4], scale).sigma[0]
    monkeypatch.setattr("sloccsim.measurement.MAX_SPAN", 10**6)
    lattice = estimate_phase([counts], [math.pi / 4], scale).sigma[0]
    assert nodes == pytest.approx(lattice, rel=1e-3)


@pytest.mark.parametrize(
    "total, same, scale",
    [(5000, 4990, 0.977), (400, 2, 0.9), (10**7, 9_970_000, 0.99)],  # the last on the fixed nodes
)
def test_fully_clamped_rows_have_zero_phase_spread(total, same, scale):
    counts = counts_with(total, same)
    est = estimate_phase([counts], [math.pi / 4], scale)
    phis = np.arccos(np.clip(bootstrap_zz(counts, 200_000, seed=25) / scale, -1.0, 1.0))
    assert est.clamped == 1
    assert est.sigma[0] == 0.0
    assert np.all(phis == phis[0])


# (same, total, scale) rows for the in-place phase bootstrap against the
# allocating form it replaced; the name says which branch and clamp each takes.
PHASE_SPREAD_EXACT = {
    "same-0": (0, 5000, 0.9),
    "same-1": (1, 5000, 1.0),
    "same-1-all-clamped": (1, 5000, 0.9),
    "same-total-minus-1": (4999, 5000, 1.0),
    "same-total": (5000, 5000, 0.9),
    "interior": (3000, 5000, 0.9),
    "all-clamped-high": (4990, 5000, 0.977),
    "all-clamped-low": (2, 400, 0.9),
    "partly-clamped-high": (4942, 5000, 0.977),
    "partly-clamped-low": (60, 5000, 0.977),
    "partly-clamped-both": (500, 1000, 1e-6),
    "huge-total-same-1": (1, 10**9, 1.0),
    "huge-total-all-clamped": (1, 10**9, 1e-6),
    "fixed-nodes": (150_000, 200_000, 0.6),
    "fixed-nodes-partly-clamped": (150_000, 200_000, 0.51),
    "fixed-nodes-huge-total": (999_000_000, 10**9, 0.999),
    "fixed-nodes-all-clamped": (9_970_000, 10**7, 0.99),
    "fixed-nodes-both-clamped": (500_000_000, 10**9, 1e-6),
    # other = 1 at a total near 1e16: the window's last step log(same / total)
    # rounds up to +7.1e-15, so the row's padding must not repeat that step
    "rising-last-step": (9_651_740_881_311_372, 9_651_740_881_311_373, 1.0),
}


def _fixed_nodes(same, total):
    other = total - same
    return 2 * math.ceil(measurement.WINDOW_SIGMAS * math.sqrt(same * other / total)) > measurement.MAX_SPAN


@pytest.mark.parametrize("case", sorted(PHASE_SPREAD_EXACT))
def test_phase_spread_equals_the_allocating_oracle(case):
    same, total, scale = PHASE_SPREAD_EXACT[case]
    assert _fixed_nodes(same, total) == case.startswith("fixed-nodes")
    want = phase_spread_oracle(same, total, scale)
    assert measurement._phase_spread([(same, total, scale)])[0] == want
    # the same row in one stack with every case, where it is padded to a longer window
    names = sorted(PHASE_SPREAD_EXACT)
    stack = [PHASE_SPREAD_EXACT[name] for name in names]
    assert measurement._phase_spread(stack)[names.index(case)] == want


def test_the_fixed_node_rule_is_built_once_read_only():
    # every fixed-node row reads the same nodes and weights; none may write to them
    nodes, weights = measurement._NORMAL_NODES, measurement._NORMAL_WEIGHTS
    assert nodes.shape == weights.shape == (measurement.MAX_SPAN + 1,)
    for array in (nodes, weights):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)


@st.composite
def spread_rows(draw):
    total = draw(st.one_of(st.integers(1, 300), st.integers(1, 10**9)))
    same = draw(st.one_of(st.sampled_from([0, 1, total - 1, total]), st.integers(0, total)))
    same = min(max(same, 0), total)
    # a scale near |zz| puts an end of the window, or all of it, past the clamp
    near = st.floats(0.5, 1.5).map(lambda f: min(1.0, max(1e-6, f * abs(2 * same - total) / total)))
    return same, total, draw(st.one_of(st.floats(1e-6, 1.0), near))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(spread_rows(), min_size=1, max_size=70))
def test_phase_spread_equals_the_allocating_oracle_on_drawn_rows(rows):
    got = measurement._phase_spread(rows).tolist()
    assert [v.hex() for v in got] == [phase_spread_oracle(*row).hex() for row in rows]


def assert_rows_match_the_oracle(tallies, betas, visibility):
    """The stacked estimate equals the per-row reference on every row, bit for bit."""
    est = estimate_phase(tallies, betas, visibility)
    refs = [estimate_phase_oracle(row, beta, visibility) for row, beta in zip(tallies, betas)]
    for field in ("phi_hat", "sigma", "zz_hat", "zz_sigma"):
        column = getattr(est, field)
        assert column.dtype == np.float64 and column.shape == (len(tallies),)
        assert [v.hex() for v in column.tolist()] == [getattr(ref, field).hex() for ref in refs], field
    assert type(est.clamped) is int
    assert est.clamped == sum(ref.clamped for ref in refs)


@st.composite
def phase_rows(draw):
    """A tally row, lattice or fixed-node, and a beta that may clamp part or all of its window."""
    total = draw(st.one_of(st.integers(1, 300), st.integers(1, 10**9), st.integers(2**63, 2**70)))
    same = draw(st.one_of(st.sampled_from([0, 1, total - 1, total]), st.integers(0, total)))
    same = min(max(same, 0), total)
    n13 = draw(st.integers(0, same))
    n14 = draw(st.integers(0, total - same))
    zz = abs(2 * same - total) / total
    near = st.floats(0.5, 1.5).map(lambda f: min(1.0, max(1e-3, f * zz)))
    scale = draw(st.one_of(st.floats(1e-3, 1.0), near))
    return (n13, n14, total - same - n14, same - n13), 0.5 * math.asin(scale)


@st.composite
def phase_stacks(draw):
    """1-70 rows; repeats give windows of equal length, and 70 rows cross block edges."""
    rows = draw(st.lists(phase_rows(), min_size=1, max_size=40))
    rows += draw(st.lists(st.sampled_from(rows), max_size=70 - len(rows)))
    return draw(st.permutations(rows)), draw(st.sampled_from([1.0, 0.977]))


@settings(max_examples=200, deadline=None)
@given(stack=phase_stacks())
def test_stacked_phase_estimate_equals_the_per_row_reference(stack):
    rows, visibility = stack
    assert_rows_match_the_oracle([row for row, _ in rows], [beta for _, beta in rows], visibility)


def test_stacked_phase_estimate_reads_an_int_array_as_its_rows():
    tallies = np.array([(2000, 900, 600, 1500), (10, 0, 0, 5), (1, 2, 3, 4)], dtype=np.int64)
    betas = [math.pi / 4, 0.3, 1.0]
    stacked = estimate_phase(tallies, betas, 0.977)
    listed = estimate_phase(tallies.tolist(), betas, 0.977)
    for field in ("phi_hat", "sigma", "zz_hat", "zz_sigma"):
        assert getattr(stacked, field).tolist() == getattr(listed, field).tolist()
    assert_rows_match_the_oracle(tallies.tolist(), betas, 0.977)


@pytest.mark.parametrize(
    "tallies, betas",
    [
        ((10, 10, 10, 10), [math.pi / 4]),  # a flat row is not a stack
        ((10, 10, 10, 10), [math.pi / 4] * 4),
        ([(10, 10, 10, 10)], math.pi / 4),  # nor is a scalar beta
        ([(10, 10, 10, 10)] * 2, [math.pi / 4]),
        (np.array([10, 10, 10, 10]), [math.pi / 4] * 4),
    ],
)
def test_estimate_phase_rejects_a_flat_row_or_a_scalar_beta(tallies, betas):
    with pytest.raises(ValueError, match="^estimate_phase takes a stack of N tally rows and N angles$"):
        estimate_phase(tallies, betas, 1.0)


STACK_ESTIMATORS = {
    "estimate_phase": lambda tallies: estimate_phase(tallies, [math.pi / 4] * len(tallies), 1.0),
    "estimate_p": lambda tallies: estimate_p(tallies, 0.0, math.pi, math.pi / 4, 1.0),
}


@pytest.mark.parametrize("estimator", sorted(STACK_ESTIMATORS))
@pytest.mark.parametrize(
    "bad, message",
    [((0, 0, 0, 0), "cannot estimate from zero counts"), ((1, -1, 0, 0), "counts must be nonnegative integers")],
)
def test_estimate_phase_names_the_row_it_cannot_read(bad, message, estimator):
    tallies = [(10, 10, 10, 10), (5, 0, 0, 5), bad, (0, 0, 0, 0)]
    with pytest.raises(TallyRowError) as info:
        STACK_ESTIMATORS[estimator](tallies)
    assert info.value.row == 2
    assert str(info.value) == message


# Cells that int() rejects, and non-finite floats: None and list cells leaked a bare
# TypeError, an infinity an OverflowError and a NaN Python's own conversion message.
JUNK_CELLS = {
    "none": (1, 2, 3, None),
    "list-cells": [[1, 2, 3, 4]] * 4,
    "string": (1, "x", 3, 4),
    "inf": (1, 2, math.inf, 4),
    "minus-inf": (-math.inf, 2, 3, 4),
    "nan": (math.nan, 2, 3, 4),
    "numpy-nan": (1, 2, 3, np.float64(math.nan)),
}


@pytest.mark.parametrize("estimator", sorted(STACK_ESTIMATORS))
@pytest.mark.parametrize("bad", list(JUNK_CELLS.values()), ids=list(JUNK_CELLS))
def test_a_cell_that_is_no_count_names_its_row(bad, estimator):
    with pytest.raises(TallyRowError) as info:
        STACK_ESTIMATORS[estimator]([(10, 10, 10, 10), bad])
    assert info.value.row == 1
    assert str(info.value) == "counts must be nonnegative integers"


@pytest.mark.parametrize("estimator", sorted(STACK_ESTIMATORS))
def test_integral_cells_of_any_type_are_counts(estimator):
    plain = STACK_ESTIMATORS[estimator]([(3, 1, 1, 3), (3, 1, 1, 3), (2**70, 0, 1, 2**70)])
    typed = STACK_ESTIMATORS[estimator]([(3.0, 1, 1, 3), (np.int64(3), np.uint8(1), 1, 3), (2**70, 0, 1.0, 2**70)])
    assert typed.zz_hat.tobytes() == plain.zz_hat.tobytes()


@pytest.mark.parametrize("estimator", sorted(STACK_ESTIMATORS))
@pytest.mark.parametrize("bad", [5, (1, 2, 3), (1, 2, 3, 4, 5)], ids=["scalar", "3-entry", "5-entry"])
def test_a_later_row_of_another_shape_is_a_shape_error(bad, estimator):
    # the first row has four entries; a scalar row leaked a bare TypeError, a short one an unpack message
    with pytest.raises(ValueError) as info:
        STACK_ESTIMATORS[estimator]([(1, 2, 3, 4), (10, 10, 10, 10), bad])
    assert info.type is ValueError
    assert str(info.value) == SHAPE_ERRORS[estimator]


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_estimators_name_a_non_finite_beta(beta):
    # NaN gave phi_hat = pi with a NaN sigma (or a NaN weight) and no warning, under the
    # suite's filterwarnings = error; inf raised a bare math domain error
    estimators = (
        lambda: estimate_phase([[10, 20, 30, 40]], [beta], 0.9),
        lambda: estimate_p([[10, 20, 30, 40]], 0.0, math.pi, beta, 0.9),
    )
    for estimator in estimators:
        with pytest.raises(ValueError) as info:
            estimator()
        assert info.type is ValueError
        assert str(info.value) == f"beta must be finite, got {beta!r}"


@pytest.mark.parametrize("tallies", [(10, 10, 10, 10), np.array([10, 10, 10, 10])])
def test_estimate_p_rejects_a_flat_row(tallies):
    with pytest.raises(ValueError, match="^estimate_p takes a stack of N tally rows$"):
        estimate_p(tallies, 0.0, math.pi, math.pi / 4, 1.0)


def assert_weights_match_the_oracle(tallies, phi1, phi2, beta, visibility):
    """The stacked weight estimate equals the per-row reference on every row, bit for bit."""
    est = estimate_p(tallies, phi1, phi2, beta, visibility)
    refs = [estimate_p_oracle(row, phi1, phi2, beta, visibility) for row in tallies]
    for field in ("p_hat", "p_raw", "sigma", "zz_hat"):
        column = getattr(est, field)
        assert column.dtype == np.float64 and column.shape == (len(tallies),)
        assert [v.hex() for v in column.tolist()] == [getattr(ref, field).hex() for ref in refs], field


@st.composite
def weight_stacks(draw):
    """1-40 tally rows (totals up to 2**70) and phases whose cosine contrast has either sign."""
    rows = draw(st.lists(phase_rows(), min_size=1, max_size=40))
    angle = st.floats(0.0, 2.0 * math.pi)
    phi1, phi2 = draw(st.tuples(angle, angle).filter(lambda p: abs(math.cos(p[0]) - math.cos(p[1])) > 1e-6))
    # the first row's beta puts its zz near the scale, where a weight may leave [0, 1]
    betas = st.floats(0.0, math.pi / 2).filter(lambda b: math.sin(2.0 * b) > 1e-6)
    beta = draw(st.one_of(st.just(rows[0][1]), betas))
    return [row for row, _ in rows], phi1, phi2, beta, draw(st.sampled_from([1.0, 0.977]))


@settings(max_examples=200, deadline=None)
@given(stack=weight_stacks())
# negative contrast: zz = 1 at phi1 = pi, phi2 = 0 inverts to the weight -0.0, which the clamp keeps
@example(stack=([(1, 0, 0, 0), (0, 1, 0, 0), (3, 1, 0, 0)], math.pi, 0.0, math.pi / 4, 1.0))
# totals past 2**63, and a row whose weight clamps to 1
@example(stack=([(2**64, 3, 2**63 + 5, 0), (7, 0, 0, 5), (1000, 0, 0, 1000)], 0.0, math.pi, 0.3, 0.977))
def test_stacked_weight_estimate_equals_the_per_row_reference(stack):
    assert_weights_match_the_oracle(*stack)


# (same, total, scale at beta = pi/4 and visibility 1) rows at the edges of the padded blocks
EDGE_STACK = [
    (4990, 5000, 0.999),  # hi == other: the window ends at the top of the lattice
    (9, 5000, 0.999),  # lo == -same: it starts at the bottom
    (1, 5000, 1.0),
    (4999, 5000, 1.0),
    (1, 10**9, 1.0),
    (0, 5000, 0.9),
    (5000, 5000, 0.9),
    (4990, 5000, 0.977),  # all clamped high
    (2, 400, 0.9),  # all clamped low
    (4942, 5000, 0.977),  # partly clamped high
    (60, 5000, 0.977),  # partly clamped low
    (500, 1000, 2e-6),  # clamped at both ends
    (9_651_740_881_311_372, 9_651_740_881_311_373, 1.0),  # its last step rounds above 0
    (150_000, 200_000, 0.6),  # the lattice window of 4649 nodes under MAX_SPAN = 10**6
    (200_000_000, 400_000_000, 0.9),  # a window of 240 001 nodes, a block of its own
]


@pytest.mark.parametrize("max_span", [measurement.MAX_SPAN, 10**6])
def test_stacked_phase_estimate_raises_no_numpy_warning(max_span, monkeypatch):
    monkeypatch.setattr(measurement, "MAX_SPAN", max_span)
    monkeypatch.setattr(oracles, "MAX_SPAN", max_span)
    tallies = [(same, total - same, 0, 0) for same, total, _ in EDGE_STACK]
    betas = [0.5 * math.asin(scale) for _, _, scale in EDGE_STACK]
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_rows_match_the_oracle(tallies, betas, 1.0)
        assert_rows_match_the_oracle(tallies[::-1], betas[::-1], 1.0)


@pytest.mark.parametrize(
    "channels", [(7, 0, 0, 5), (0, 3, 9, 0), (1, 0, 0, 0), (2**62, 0, 0, 2**62 - 1)]
)
def test_spreads_are_exactly_zero_when_q_is_0_or_1(channels):
    est = estimate_phase([channels], [math.pi / 4], 1.0)
    assert est.zz_sigma[0] == 0.0
    assert est.sigma[0] == 0.0
    assert estimate_p([channels], 0.0, math.pi, math.pi / 4, 1.0).sigma[0] == 0.0


@pytest.mark.parametrize("same", [2**62, 2**63 - 4, 3])
def test_largest_total_gives_a_finite_spread_in_bounded_time(same):
    total = 2**63 - 1
    counts = (same, 0, total - same, 0)
    start = time.perf_counter()
    est = estimate_phase([counts], [math.pi / 4], 1.0)
    assert time.perf_counter() - start < 1.0
    assert 0.0 < est.zz_sigma[0] < 1e-9
    assert math.isfinite(est.sigma[0])
    if same == 2**62:
        # zz_hat ~ 0, where d(phi)/d(zz) = -1: the two spreads agree
        assert est.sigma[0] == pytest.approx(est.zz_sigma[0], rel=1e-6)


@settings(max_examples=200, deadline=None)
@given(
    phi=st.floats(0.0, math.pi),
    beta=st.floats(0.0, math.pi / 2).filter(lambda b: math.sin(2.0 * b) > 1e-3),
    # the row carries zz exactly down to |zz| = 2**-970 and to within 2**-1023 below;
    # from this visibility on, that error is far below the phase tolerance
    visibility=st.floats(1e-280, 1.0),
)
@example(phi=0.0, beta=math.pi / 4, visibility=1.0)
@example(phi=math.pi, beta=0.3, visibility=0.977)
@example(phi=1e-8, beta=math.pi / 4, visibility=0.5)
def test_estimate_phase_inverts_the_forward_model(phi, beta, visibility):
    zz = visibility * math.sin(2.0 * beta) * math.cos(phi)
    est = estimate_phase([tally_with_zz(zz)], [beta], visibility)
    # within 1e-6 of 0 or pi, arccos turns one rounding of cos(phi) into up to
    # sqrt(2 * 2**-52) ~ 2.1e-8 of phase
    tolerance = 1e-9 if math.sin(phi) > 1e-6 else 3e-8
    assert abs(est.phi_hat[0] - phi) <= tolerance
    assert est.clamped == 0


def test_estimate_phase_recovers_known_phase():
    beta = math.pi / 4
    phis = (0.3, 1.1, 2.5)
    tallies = []
    for phi in phis:
        rho = rotate_density(ket_to_density(prepare_lr(PreparationSettings(beta, phi))))
        tallies.append(draw(outcome_probs(rho), 2_000_000, seed=17))
    est = estimate_phase(tallies, [beta] * len(phis), 1.0)
    assert np.all(np.abs(est.phi_hat - phis) < 5e-3)
    assert np.all(est.sigma > 0.0)
    assert est.clamped == 0


def test_estimate_phase_folds_reflected_phases():
    # cos(phi) = cos(2 pi - phi); the estimator reports the branch in [0, pi]
    beta = math.pi / 4
    phi = 2.0
    rho = rotate_density(
        ket_to_density(prepare_lr(PreparationSettings(beta, 2.0 * math.pi - phi)))
    )
    counts = draw(outcome_probs(rho), 2_000_000, seed=9)
    est = estimate_phase([counts], [beta], 1.0)
    assert abs(est.phi_hat[0] - phi) < 5e-3


def test_estimate_phase_clamps_out_of_range_ratio():
    counts = (1000, 0, 0, 1000)  # zz = 1 against a scale of sin(20 deg)
    est = estimate_phase([counts], [math.radians(10)], 1.0)
    assert est.clamped == 1
    assert est.phi_hat[0] == 0.0


def test_estimate_phase_rejects_bad_inputs():
    counts = (10, 10, 10, 10)
    with pytest.raises(LowIndistinguishabilityError):
        estimate_phase([counts], [0.0], 1.0)
    with pytest.raises(ValueError):
        estimate_phase([counts], [math.pi / 4], 0.0)
    with pytest.raises(ValueError):
        estimate_phase([counts], [math.pi / 4], 1.5)


@pytest.mark.parametrize(
    "change, error, message",
    [
        ({"beta": 0.0}, LowIndistinguishabilityError, "sin(2*beta) <= 1e-6: the correlation carries no {} information"),
        ({"visibility": 0.0}, ValueError, "visibility must lie in (0, 1]"),
        ({"visibility": 1.5}, ValueError, "visibility must lie in (0, 1]"),
        ({"counts": (0, 0, 0, 0)}, ValueError, "cannot estimate from zero counts"),
        # a subnormal scale overflowed the spread's division or divided by zero
        ({"visibility": 1e-310}, ValueError, "visibility * sin(2*beta) = 1e-310 is below the smallest normal float"),
        ({"visibility": 5e-324}, ValueError, "visibility * sin(2*beta) = 5e-324 is below the smallest normal float"),
    ],
)
def test_phase_and_weight_estimators_share_input_checks(change, error, message):
    args = {"beta": math.pi / 4, "visibility": 1.0}
    args["counts"] = (10, 10, 10, 10)
    args.update(change)
    with pytest.raises(error) as phase:
        estimate_phase([args["counts"]], [args["beta"]], args["visibility"])
    with pytest.raises(error) as weight:
        estimate_p([args["counts"]], 0.0, math.pi, args["beta"], args["visibility"])
    assert str(phase.value) == message.format("phase")
    assert str(weight.value) == message.format("weight")


# 2 * BLOCK_ROWS + 1 rows: the estimators read two full blocks and a last block of one row.
EDGE_ROWS = (0, 255, 256, 511, 512)
EDGE_BETAS = (math.pi / 4, math.pi / 6, 0.3)
MIXTURE = (0.0, math.pi, math.pi / 4)  # phi1, phi2, beta


def edge_stack(kind):
    """513 tally rows and their betas: an int64 array, or Python-int rows whose even rows total past 2**63.

    The correlations spread over [-1, 1], so that at visibility 0.9 rows in every
    block clamp, and the small totals take the lattice sum, the large the fixed nodes.
    """
    n = 2 * measurement.BLOCK_ROWS + 1
    rng = np.random.default_rng(2718)
    rows = []
    for index in range(n):
        big = kind == "python-ints" and index % 2 == 0
        total = 2**64 + int(rng.integers(1, 2**40)) if big else int(rng.integers(1, 2000))
        same = round(float(rng.uniform()) * total)
        n13, n14 = same // 3, (total - same) // 2
        rows.append((n13, n14, total - same - n14, same - n13))
    assert min(map(sum, rows)) >= 1 and (kind != "python-ints" or max(map(sum, rows)) > 2**63)
    betas = [EDGE_BETAS[index % 3] for index in range(n)]
    return (np.array(rows, dtype=np.int64) if kind == "int64" else rows), rows, betas


@pytest.mark.parametrize("kind", ["int64", "python-ints"])
def test_estimators_read_block_edges_as_the_per_row_references(kind):
    tallies, rows, betas = edge_stack(kind)
    phase = estimate_phase(tallies, betas, 0.9)
    weight = estimate_p(tallies, *MIXTURE, 0.9)
    for index in EDGE_ROWS:
        ref = estimate_phase_oracle(rows[index], betas[index], 0.9)
        for field in ("phi_hat", "sigma", "zz_hat", "zz_sigma"):
            assert getattr(phase, field)[index].hex() == getattr(ref, field).hex(), (index, field)
        ref = estimate_p_oracle(rows[index], *MIXTURE, 0.9)
        for field in ("p_hat", "p_raw", "sigma", "zz_hat"):
            assert getattr(weight, field)[index].hex() == getattr(ref, field).hex(), (index, field)
    clamped = [estimate_phase_oracle(row, beta, 0.9).clamped for row, beta in zip(rows, betas)]
    block = measurement.BLOCK_ROWS
    assert all(any(clamped[start : start + block]) for start in (0, block))
    assert type(phase.clamped) is int and phase.clamped == sum(clamped)


@pytest.mark.parametrize("estimator", sorted(STACK_ESTIMATORS))
@pytest.mark.parametrize("kind", ["int64", "python-ints"])
def test_an_empty_row_in_a_later_block_is_named_by_its_index_in_the_stack(kind, estimator):
    tallies, _, _ = edge_stack(kind)
    tallies[-1] = (0, 0, 0, 0)
    with pytest.raises(TallyRowError) as info:
        STACK_ESTIMATORS[estimator](tallies)
    assert info.value.row == 2 * measurement.BLOCK_ROWS
    assert str(info.value) == "cannot estimate from zero counts"
