import math

import numpy as np
import pytest

from sloccsim import (
    DegeneratePhasesError,
    LowIndistinguishabilityError,
    MixtureSpec,
    estimate_p,
    estimate_zz,
    expectation_zz,
    mixed_state,
    mixture_expectation,
    outcome_probs,
    rotate_density,
    sample_counts,
)
from sloccsim.measurement import bootstrap_zz


def sampled(spec, total, seed):
    """One mixture's tally row, drawn on a fresh generator."""
    probs = outcome_probs(rotate_density(mixed_state([spec])))
    return sample_counts(probs, total, [np.random.default_rng(seed)])[0].tolist()


def test_spec_validation():
    with pytest.raises(ValueError):
        MixtureSpec(weight=1.1, phi1=0.0, phi2=math.pi, beta=math.pi / 4)
    with pytest.raises(ValueError):
        MixtureSpec(weight=0.5, phi1=0.0, phi2=math.pi, beta=2.0)
    spec = MixtureSpec(weight=0.5, phi1=-math.pi, phi2=3.0 * math.pi, beta=0.3)
    assert spec.phi1 == pytest.approx(math.pi)
    assert spec.phi2 == pytest.approx(math.pi)


def test_pure_limits():
    boson = MixtureSpec(weight=1.0, phi1=0.0, phi2=math.pi, beta=math.pi / 4)
    fermion = MixtureSpec(weight=0.0, phi1=0.0, phi2=math.pi, beta=math.pi / 4)
    assert mixture_expectation(boson) == pytest.approx(1.0, abs=1e-12)
    assert mixture_expectation(fermion) == pytest.approx(-1.0, abs=1e-12)


def test_expectation_linear_in_weight():
    for w in np.linspace(0.0, 1.0, 11):
        spec = MixtureSpec(weight=w, phi1=0.0, phi2=math.pi, beta=math.pi / 4)
        assert mixture_expectation(spec) == pytest.approx(2.0 * w - 1.0, abs=1e-12)


def test_density_route_matches_closed_form():
    # trace route through the mixed density operator vs the averaged formula
    rng = np.random.default_rng(16)
    for _ in range(200):
        spec = MixtureSpec(
            weight=rng.uniform(0.0, 1.0),
            phi1=rng.uniform(0.0, 2.0 * math.pi),
            phi2=rng.uniform(0.0, 2.0 * math.pi),
            beta=rng.uniform(0.0, math.pi / 2),
        )
        via_density = expectation_zz(rotate_density(mixed_state([spec])[0]))
        assert via_density == pytest.approx(mixture_expectation(spec), abs=1e-12)


def test_estimate_p_exact_inversion():
    spec = MixtureSpec(weight=0.37, phi1=0.0, phi2=math.pi, beta=math.pi / 4)
    zz = mixture_expectation(spec)
    counts = sampled(spec, 1000, 1)
    est = estimate_p(zz, spec.phi1, spec.phi2, spec.beta, 1.0, counts)
    assert est.p_raw == pytest.approx(0.37, abs=1e-12)
    assert est.p_hat == est.p_raw
    assert est.sigma > 0.0


def test_estimate_p_clamps_to_unit_interval():
    spec = MixtureSpec(weight=1.0, phi1=0.0, phi2=math.pi, beta=math.pi / 4)
    counts = sampled(spec, 1000, 2)
    est = estimate_p(1.002, spec.phi1, spec.phi2, spec.beta, 1.0, counts)
    assert est.p_raw > 1.0
    assert est.p_hat == 1.0


def test_estimate_p_end_to_end_sampled():
    rng_seeds = (101, 202, 303)
    for w, seed in zip((0.0, 0.5, 1.0), rng_seeds):
        spec = MixtureSpec(weight=w, phi1=0.0, phi2=math.pi, beta=math.pi / 4)
        counts = sampled(spec, 100_000, seed)
        est = estimate_p(estimate_zz(counts), spec.phi1, spec.phi2, spec.beta, 1.0, counts)
        assert abs(est.p_hat - w) < 0.02


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
    est = estimate_p(estimate_zz(channels), phi1, phi2, beta, visibility, channels)
    scale = visibility * math.sin(2.0 * beta)
    resamples = bootstrap_zz(channels, 200_000, seed=31)
    weights = (resamples / scale - math.cos(phi2)) / (math.cos(phi1) - math.cos(phi2))
    dev = weights - weights.mean()
    kurtosis = np.mean(dev**4) / np.mean(dev**2) ** 2 - 3.0
    tolerance = 6.0 * est.sigma * math.sqrt((kurtosis + 2.0) / (4 * weights.size))
    assert abs(weights.std(ddof=1) - est.sigma) <= tolerance


def test_estimate_p_rejects_degenerate_settings():
    spec = MixtureSpec(weight=0.5, phi1=0.0, phi2=math.pi, beta=math.pi / 4)
    counts = sampled(spec, 1000, 3)
    with pytest.raises(DegeneratePhasesError):
        estimate_p(0.0, 1.0, -1.0, math.pi / 4, 1.0, counts)
    with pytest.raises(DegeneratePhasesError):
        estimate_p(0.0, 0.3, 0.3, math.pi / 4, 1.0, counts)
    with pytest.raises(LowIndistinguishabilityError):
        estimate_p(0.0, 0.0, math.pi, 0.0, 1.0, counts)
    with pytest.raises(ValueError):
        estimate_p(0.0, 0.0, math.pi, math.pi / 4, 0.0, counts)


def test_half_contrast_pair_needs_more_shots():
    # contrast 1 vs 2: the (0, pi/2) pair spans half the signal range of
    # (0, pi), so the inverted weight carries roughly twice the spread
    sigmas = {}
    for label, phi2 in (("full", math.pi), ("half", math.pi / 2)):
        spec = MixtureSpec(weight=0.5, phi1=0.0, phi2=phi2, beta=math.pi / 4)
        counts = sampled(spec, 100_000, 44)
        est = estimate_p(estimate_zz(counts), spec.phi1, spec.phi2, spec.beta, 1.0, counts)
        sigmas[label] = est.sigma
    ratio = (sigmas["half"] / sigmas["full"]) ** 2
    assert 2.5 < ratio < 6.0
