import functools
import math

import numpy as np
import pytest

from sloccsim import noise, sweeps
from sloccsim import (
    NoiseModel,
    PreparationSettings,
    fit_noise,
    ket_to_density,
    noisy_state,
    prepare_lr,
    rotate_density,
)
from sloccsim.config import ExperimentConfig, resolve
from sloccsim.noise import DEPHASED, WHITE_NOISE, least_squares, noise_floor
from sloccsim.slocc import lr_kets
from sloccsim.states import DensityMatrix4

from oracles import noisy_expectation_scaling
from physics import expectation_zz


def test_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(visibility=1.2)
    with pytest.raises(ValueError):
        NoiseModel(visibility=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(white_weight=0.6, dephasing_weight=0.6)
    assert NoiseModel(visibility=1.0).visibility == 1.0
    assert NoiseModel().visibility == 0.977


def test_noise_floor_components():
    assert np.allclose(noise_floor(NoiseModel(white_weight=1.0, dephasing_weight=0.0)), WHITE_NOISE)
    assert np.allclose(noise_floor(NoiseModel(white_weight=0.0, dephasing_weight=1.0)), DEPHASED)
    mixed = noise_floor(NoiseModel())
    assert np.allclose(np.diag(mixed), [0.125, 0.375, 0.375, 0.125], atol=1e-15)


def test_noisy_state_limits():
    ideal = ket_to_density(prepare_lr(PreparationSettings(math.pi / 4, 0.7)).amps)
    assert np.allclose(noisy_state(ideal, NoiseModel(visibility=1.0)), ideal)
    fully = noisy_state(ideal, NoiseModel(visibility=0.0, white_weight=1.0, dephasing_weight=0.0))
    assert np.allclose(fully, WHITE_NOISE)


def test_noisy_state_is_elementwise_convex_mix():
    rng = np.random.default_rng(14)
    for _ in range(100):
        beta = rng.uniform(0.05, math.pi / 2 - 0.05)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        model = NoiseModel(
            visibility=rng.uniform(0.0, 1.0),
            white_weight=(w := rng.uniform(0.0, 1.0)),
            dephasing_weight=1.0 - w,
        )
        ideal = ket_to_density(prepare_lr(PreparationSettings(beta, phi)).amps)
        got = noisy_state(ideal, model)
        # reference mix built entry by entry, no shared code path
        expected = np.empty((4, 4), dtype=np.complex128)
        for i in range(4):
            for j in range(4):
                floor_ij = model.white_weight * WHITE_NOISE[i, j]
                floor_ij += model.dephasing_weight * DEPHASED[i, j]
                expected[i, j] = (
                    model.visibility * ideal[i, j]
                    + (1.0 - model.visibility) * floor_ij
                )
        assert np.allclose(got, expected, atol=1e-15)


def test_rotated_noise_floor_has_no_correlation():
    for floor in (WHITE_NOISE, DEPHASED):
        rotated = rotate_density(DensityMatrix4(floor).matrix)
        assert abs(expectation_zz(rotated)) <= 1e-14


def test_visibility_scaling_law():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        beta = rng.uniform(0.0, math.pi / 2)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        model = NoiseModel(
            visibility=rng.uniform(0.0, 1.0),
            white_weight=(w := rng.uniform(0.0, 1.0)),
            dephasing_weight=1.0 - w,
        )
        ideal = ket_to_density(prepare_lr(PreparationSettings(beta, phi)).amps)
        got = noisy_expectation_scaling(ideal, model)
        assert got == pytest.approx(
            model.visibility * math.sin(2 * beta) * math.cos(phi), abs=1e-12
        )


def stacked(records):
    """(targets, kets) for fit_noise from (validated target, settings) pairs."""
    return np.stack([rho.matrix for rho, _ in records]), lr_kets([s for _, s in records])


def grid_records(model, betas=(math.pi / 4,), phis=(0.0, 0.9, 1.7, 2.8, 4.1, 5.3)):
    records = []
    for beta in betas:
        for phi in phis:
            settings = PreparationSettings(beta, phi)
            ideal = ket_to_density(prepare_lr(settings).amps)
            records.append((DensityMatrix4(noisy_state(ideal, model)), settings))
    return stacked(records)


def test_fit_recovers_exact_model():
    model = NoiseModel(visibility=0.977, white_weight=0.5, dephasing_weight=0.5)
    fitted = fit_noise(*grid_records(model))
    assert fitted.visibility == pytest.approx(0.977, abs=1e-12)
    assert fitted.white_weight == pytest.approx(0.5, abs=1e-10)


def test_fit_recovers_uneven_split():
    model = NoiseModel(visibility=0.9, white_weight=0.8, dephasing_weight=0.2)
    fitted = fit_noise(*grid_records(model))
    assert fitted.visibility == pytest.approx(0.9, abs=1e-10)
    assert fitted.white_weight == pytest.approx(0.8, abs=1e-9)
    assert fitted.dephasing_weight == pytest.approx(0.2, abs=1e-9)


def test_fit_on_ideal_data_reports_default_split():
    fitted = fit_noise(*grid_records(NoiseModel(visibility=1.0)))
    assert fitted.visibility == pytest.approx(1.0, abs=1e-12)
    assert fitted.white_weight == 0.5


def model_cost(records, visibility, white):
    """Squared Frobenius misfit of the noise model, broadcast over parameters."""
    vis = np.asarray(visibility, dtype=float)[..., None, None]
    wht = np.asarray(white, dtype=float)[..., None, None]
    total = 0.0
    for rho, ket in zip(*records):
        ideal = ket_to_density(ket)
        floor = wht * WHITE_NOISE + (1.0 - wht) * DEPHASED
        diff = vis * ideal + (1.0 - vis) * floor - rho
        total = total + np.sum(np.abs(diff) ** 2, axis=(-2, -1))
    return total


def count_edge_solves(monkeypatch):
    calls = []
    solve = noise.least_squares

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(noise, "least_squares", counted)
    return calls


def assert_no_grid_point_beats(records, fitted):
    # a 201 x 201 grid in (visibility, white) covers the physical triangle
    vis, white = np.meshgrid(np.linspace(0.0, 1.0, 201), np.linspace(0.0, 1.0, 201))
    best = model_cost(records, fitted.visibility, fitted.white_weight)
    assert model_cost(records, vis, white).min() >= best - 1e-15


def edge_records(make_target):
    records = []
    for phi in (0.0, 1.0, 2.2, 3.3, 4.4):
        settings = PreparationSettings(math.pi / 4, phi)
        target = make_target(ket_to_density(prepare_lr(settings).amps), phi)
        records.append((DensityMatrix4(target), settings))
    return stacked(records)


def test_fit_clips_unphysical_optimum_to_box(monkeypatch):
    # target sits slightly outside the model family: the unconstrained
    # optimum has a negative dephasing share, so the bounded path must run
    # and land on the edge c_vis + c_white = 1 (white weight 1)
    def make_target(ideal, phi):
        target = 0.9 * ideal + 0.12 * WHITE_NOISE - 0.02 * DEPHASED
        target = target + target.conj().T
        return target / np.trace(target).real

    records = edge_records(make_target)
    calls = count_edge_solves(monkeypatch)
    fitted = fit_noise(*records)
    assert len(calls) == 1
    assert 0.0 <= fitted.visibility <= 1.0
    assert fitted.white_weight == 1.0
    assert_no_grid_point_beats(records, fitted)


def test_fit_clips_negative_visibility_to_zero(monkeypatch):
    # the state orthogonal to the ideal one (phi + pi) gives a negative
    # unconstrained visibility; the bounded optimum lies on the edge c_vis = 0
    def make_target(ideal, phi):
        flipped = ket_to_density(prepare_lr(PreparationSettings(math.pi / 4, phi + math.pi)).amps)
        return 0.5 * flipped + 0.3 * WHITE_NOISE + 0.2 * DEPHASED

    records = edge_records(make_target)
    calls = count_edge_solves(monkeypatch)
    fitted = fit_noise(*records)
    assert len(calls) == 1
    assert fitted.visibility == 0.0
    assert fitted.white_weight == pytest.approx(0.3, abs=1e-12)
    assert_no_grid_point_beats(records, fitted)


@pytest.mark.parametrize(
    "free_optimum, expected",
    [
        ((-0.5, 0.3), (0.0, 0.3)),  # c_vis = 0
        ((0.3, -0.5), (0.3, 0.0)),  # c_white = 0
        ((0.8, 0.6), (0.6, 0.4)),  # c_vis + c_white = 1
        ((-0.5, -0.5), (0.0, 0.0)),  # corner shared by two edges
    ],
)
def test_edge_solve_finds_nearest_triangle_point(free_optimum, expected):
    # With an identity design the bounded optimum is the Euclidean nearest
    # point of the triangle.  A valid density matrix never drives the white
    # coordinate negative (it is twice the mean |00>, |11> population, and
    # the two design columns are orthogonal), so the edge c_white = 0 is
    # reached here rather than through fit_noise.
    got = least_squares(np.eye(2), np.asarray(free_optimum))
    assert got == pytest.approx(expected, abs=1e-15)


# tomography-demo --ideal seeds in 0..49 whose unconstrained fit optimum
# leaves the physical triangle
FALLBACK_SEEDS = (2, 3, 4, 5, 8, 9, 16, 32, 33, 37, 38, 40, 41, 46)


@functools.lru_cache(maxsize=None)
def tomography_records(seed):
    """The reconstructions that `tomography-demo --ideal --seed <seed>` fits."""
    captured = []

    def capture(targets, kets):
        captured.append((targets, kets))
        return fit_noise(targets, kets)

    cfg = resolve(ExperimentConfig(), "tomography-demo", seed=seed, ideal=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweeps, "fit_noise", capture)
        sweeps.run_scenario(cfg)
    return captured[0]


@pytest.mark.parametrize("seed", FALLBACK_SEEDS)
def test_fallback_seed_fit_is_exact(seed, monkeypatch):
    records = tomography_records(seed)
    calls = count_edge_solves(monkeypatch)
    fitted = fit_noise(*records)
    assert len(calls) == 1
    assert_no_grid_point_beats(records, fitted)


def test_fit_matches_scipy_on_fallback_seeds():
    optimize = pytest.importorskip("scipy.optimize")
    for seed in FALLBACK_SEEDS:
        records = tomography_records(seed)
        fitted = fit_noise(*records)
        targets, kets = records
        ideals = ket_to_density(kets)

        def residuals(params):
            vis, white = params
            floor = white * WHITE_NOISE + (1.0 - white) * DEPHASED
            diff = vis * ideals + (1.0 - vis) * floor - targets
            return np.concatenate([diff.real.ravel(), diff.imag.ravel()])

        start = np.clip([fitted.visibility, 0.5], 1e-6, 1.0 - 1e-6)
        reference = optimize.least_squares(residuals, start, bounds=([0.0, 0.0], [1.0, 1.0]))
        exact = model_cost(records, fitted.visibility, fitted.white_weight)
        assert exact <= model_cost(records, *reference.x) + 1e-15, seed
        # scipy stops at its default ftol, a few 1e-7 short of the optimum
        assert fitted.visibility == pytest.approx(reference.x[0], abs=1e-6), seed
        assert fitted.white_weight == pytest.approx(reference.x[1], abs=1e-6), seed


def test_fit_needs_two_records():
    model = NoiseModel()
    records = grid_records(model, phis=(0.3,))
    with pytest.raises(ValueError):
        fit_noise(*records)


def test_fit_needs_one_target_per_setting():
    targets, kets = grid_records(NoiseModel())
    with pytest.raises(ValueError, match=r"targets must have shape \(5, 4, 4\)"):
        fit_noise(targets, kets[:5])
    with pytest.raises(ValueError, match="one per ket"):
        fit_noise(targets[0], kets)


@pytest.mark.parametrize("shape", [(3, 3), (3,), (3, 4, 1)], ids=["3x3", "flat", "3x4x1"])
def test_fit_needs_four_amplitude_kets(shape):
    # (3, 3) kets raised numpy's "operands could not be broadcast together"
    targets = np.broadcast_to(WHITE_NOISE, (3, 4, 4))
    kets = np.zeros(shape, dtype=np.complex128)
    kets.reshape(3, -1)[:, 0] = 1.0
    with pytest.raises(ValueError) as info:
        fit_noise(targets, kets)
    assert str(info.value) == f"kets must have shape (3, 4), one per target, got {shape}"
