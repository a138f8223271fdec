import math

import numpy as np
import pytest

from sloccsim import (
    DegeneratePhasesError,
    LowIndistinguishabilityError,
    PreparationSettings,
    estimate_p,
    mixed_state,
    mixture_expectation,
    outcome_probs,
    rotate_density,
    sample_counts,
)
from sloccsim.measurement import bootstrap_zz, read_tallies

from oracles import pure_density_oracle, tally_with_zz
from physics import expectation_zz


def sampled(weight, phi1, phi2, beta, total, seed):
    """One mixture's tally row, drawn on a fresh generator."""
    probs = outcome_probs(rotate_density(mixed_state([weight], phi1, phi2, beta)))
    return sample_counts(probs, total, [np.random.default_rng(seed)])[0].tolist()


def test_mixed_state_validation():
    with pytest.raises(ValueError, match=r"weight must lie in \[0, 1\]"):
        mixed_state([0.5, 1.1], 0.0, math.pi, math.pi / 4)
    with pytest.raises(ValueError, match=r"beta must lie in \[0, pi/2\]"):
        mixed_state([0.5], 0.0, math.pi, 2.0)
    # phases are reduced into [0, 2 pi) as PreparationSettings stores them
    wound = mixed_state([0.5], -math.pi, 3.0 * math.pi, 0.3)
    assert np.allclose(wound, mixed_state([0.5], math.pi, math.pi, 0.3), rtol=0.0, atol=1e-15)
    assert np.array_equal(wound[0], pure_density_oracle(0.3, math.pi))


def test_mixed_state_clamps_beta_as_preparation_settings_does():
    # a beta within the tolerance above pi/2 blends as pi/2, one beyond it is rejected
    assert PreparationSettings(math.pi / 2 + 1e-12).beta == math.pi / 2
    blend = mixed_state([0.5], 0, 1, math.pi / 2 + 1e-12)
    assert np.array_equal(blend, mixed_state([0.5], 0, 1, math.pi / 2))
    with pytest.raises(ValueError, match=r"beta must lie in \[0, pi/2\]"):
        mixed_state([0.5], 0, 1, math.pi / 2 + 1e-11)


def test_pure_limits():
    assert mixture_expectation(1.0, 0.0, math.pi, math.pi / 4) == pytest.approx(1.0, abs=1e-12)
    assert mixture_expectation(0.0, 0.0, math.pi, math.pi / 4) == pytest.approx(-1.0, abs=1e-12)


def test_expectation_linear_in_weight():
    weights = np.linspace(0.0, 1.0, 11)
    expectation = mixture_expectation(weights, 0.0, math.pi, math.pi / 4)
    assert expectation.dtype == np.float64 and expectation.shape == weights.shape
    assert np.allclose(expectation, 2.0 * weights - 1.0, rtol=0.0, atol=1e-12)


def test_expectation_column_matches_each_weight_alone():
    weights = [0.0, 0.1, 1 / 3, 0.5, 0.9, 1.0]
    for phi1, phi2, beta in [(0.0, math.pi, math.pi / 4), (math.pi, 0.0, 0.3), (1.0, 2.5, 1.2)]:
        column = mixture_expectation(weights, phi1, phi2, beta).tolist()
        one_by_one = [math.sin(2.0 * beta) * (w * math.cos(phi1) + (1.0 - w) * math.cos(phi2)) for w in weights]
        assert [v.hex() for v in column] == [v.hex() for v in one_by_one]


def test_density_route_matches_closed_form():
    # trace route through the mixed density operator vs the averaged formula
    rng = np.random.default_rng(16)
    for _ in range(200):
        weight = rng.uniform(0.0, 1.0)
        phi1 = rng.uniform(0.0, 2.0 * math.pi)
        phi2 = rng.uniform(0.0, 2.0 * math.pi)
        beta = rng.uniform(0.0, math.pi / 2)
        via_density = expectation_zz(rotate_density(mixed_state([weight], phi1, phi2, beta)[0]))
        assert via_density == pytest.approx(mixture_expectation(weight, phi1, phi2, beta), abs=1e-12)


def test_estimate_p_exact_inversion():
    counts = tally_with_zz(mixture_expectation(0.37, 0.0, math.pi, math.pi / 4))
    est = estimate_p([counts], 0.0, math.pi, math.pi / 4, 1.0)
    assert est.p_raw[0] == pytest.approx(0.37, abs=1e-12)
    assert est.p_hat[0] == est.p_raw[0]
    assert est.sigma[0] > 0.0


def test_estimate_p_clamps_to_unit_interval():
    counts = sampled(1.0, 0.0, math.pi, math.pi / 4, 1000, 2)  # zz = 1, above the scale 0.998
    assert read_tallies([counts], "one row")[1][0] == 1.0
    est = estimate_p([counts], 0.0, math.pi, math.pi / 4, 0.998)
    assert est.p_raw[0] > 1.0
    assert est.p_hat[0] == 1.0


def test_estimate_p_end_to_end_sampled():
    rng_seeds = (101, 202, 303)
    for w, seed in zip((0.0, 0.5, 1.0), rng_seeds):
        counts = sampled(w, 0.0, math.pi, math.pi / 4, 100_000, seed)
        est = estimate_p([counts], 0.0, math.pi, math.pi / 4, 1.0)
        assert abs(est.p_hat[0] - w) < 0.02


@pytest.mark.parametrize(
    "phi1, phi2, beta, visibility, channels",
    [
        (0.0, math.pi, math.pi / 4, 1.0, (300, 200, 250, 250)),
        (0.0, math.pi / 2, 0.5, 0.977, (700, 50, 100, 150)),
        (math.pi, 1.0, 0.3, 0.6, (40, 180, 160, 20)),  # negative contrast
    ],
)
def test_p_err_is_the_bootstrap_sd_of_the_inverted_weight(phi1, phi2, beta, visibility, channels):
    # the weight is linear in zz, so its exact bootstrap sd is zz's over |scale * contrast|
    sigma = estimate_p([channels], phi1, phi2, beta, visibility).sigma[0]
    scale = visibility * math.sin(2.0 * beta)
    resamples = bootstrap_zz(channels, 200_000, seed=31)
    weights = (resamples / scale - math.cos(phi2)) / (math.cos(phi1) - math.cos(phi2))
    dev = weights - weights.mean()
    kurtosis = np.mean(dev**4) / np.mean(dev**2) ** 2 - 3.0
    tolerance = 6.0 * sigma * math.sqrt((kurtosis + 2.0) / (4 * weights.size))
    assert abs(weights.std(ddof=1) - sigma) <= tolerance


def test_estimate_p_rejects_degenerate_settings():
    tallies = [sampled(0.5, 0.0, math.pi, math.pi / 4, 1000, 3)]
    with pytest.raises(DegeneratePhasesError):
        estimate_p(tallies, 1.0, -1.0, math.pi / 4, 1.0)
    with pytest.raises(DegeneratePhasesError):
        estimate_p(tallies, 0.3, 0.3, math.pi / 4, 1.0)
    with pytest.raises(LowIndistinguishabilityError):
        estimate_p(tallies, 0.0, math.pi, 0.0, 1.0)
    with pytest.raises(ValueError):
        estimate_p(tallies, 0.0, math.pi, math.pi / 4, 0.0)


def test_half_contrast_pair_needs_more_shots():
    # contrast 1 vs 2: the (0, pi/2) pair spans half the signal range of
    # (0, pi), so the inverted weight carries roughly twice the spread
    sigmas = {}
    for label, phi2 in (("full", math.pi), ("half", math.pi / 2)):
        counts = sampled(0.5, 0.0, phi2, math.pi / 4, 100_000, 44)
        sigmas[label] = estimate_p([counts], 0.0, phi2, math.pi / 4, 1.0).sigma[0]
    ratio = (sigmas["half"] / sigmas["full"]) ** 2
    assert 2.5 < ratio < 6.0
