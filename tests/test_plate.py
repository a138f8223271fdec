import math

import numpy as np
import pytest

from sloccsim import PlateGeometry, phase_from_displacement, wrap_phase

from oracles import phase_via_refraction
from physics import displacement_from_phase

GEOM = PlateGeometry()


def test_geometry_defaults_and_validation():
    assert GEOM.thickness == pytest.approx(199.94e-6)
    assert GEOM.max_displacement == pytest.approx(0.15354, abs=1e-5)
    with pytest.raises(ValueError):
        PlateGeometry(thickness=0.0)
    with pytest.raises(ValueError):
        PlateGeometry(index=1.0)
    with pytest.raises(ValueError):
        PlateGeometry(index=1.5, ambient_index=0.9)



@pytest.mark.parametrize("length", ["thickness", "radius", "wavelength"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1e-3])
def test_geometry_takes_positive_finite_lengths_only(length, value):
    # radius = nan built a plate whose limit was nan m, and radius = inf one with no phase at any x
    with pytest.raises(ValueError, match="^thickness, radius and wavelength must be positive and finite$"):
        PlateGeometry(**{length: value})


def test_zero_displacement_gives_zero_phase():
    phase = phase_from_displacement(0.0, GEOM)
    assert type(phase) is float
    assert phase == 0.0
    assert wrap_phase(phase) == 0.0


def test_phase_is_even_in_displacement():
    for x in (1e-3, 5e-3, 20e-3, 40e-3):
        assert phase_from_displacement(x, GEOM) == pytest.approx(
            phase_from_displacement(-x, GEOM), abs=0.0
        )


def test_unwrapped_phase_strictly_increasing():
    xs = np.arange(0.0, 40.0e-3 + 1e-12, 0.5e-3)
    phases = [phase_from_displacement(x, GEOM) for x in xs]
    diffs = np.diff(phases)
    assert np.all(diffs > 0.0)


def test_agrees_with_refraction_path():
    for x in np.linspace(-0.1, 0.1, 41):
        direct = phase_from_displacement(x, GEOM)
        assert direct == pytest.approx(phase_via_refraction(x, GEOM), abs=1e-12)


def test_round_trip_phase_to_displacement():
    rng = np.random.default_rng(12)
    for phi in rng.uniform(0.0, 4.0 * math.pi, size=100):
        x = displacement_from_phase(phi, GEOM)
        back = phase_from_displacement(x, GEOM)
        assert back == pytest.approx(phi, abs=1e-9)


def test_round_trip_displacement_to_phase():
    for x in (0.5e-3, 3e-3, 7.9e-3, 25e-3, 60e-3):
        phi = phase_from_displacement(x, GEOM)
        assert displacement_from_phase(phi, GEOM) == pytest.approx(x, abs=1e-12)


def test_wrapped_phase_stays_in_fold_and_preserves_cosine():
    rng = np.random.default_rng(30)
    for phi in rng.uniform(0.0, 30.0, size=300):
        w = wrap_phase(phi)
        assert 0.0 <= w <= math.pi
        assert math.cos(w) == pytest.approx(math.cos(phi), abs=1e-9)
    assert wrap_phase(0.0) == 0.0
    assert wrap_phase(math.pi) == pytest.approx(math.pi)
    assert wrap_phase(1.5 * math.pi) == pytest.approx(0.5 * math.pi)
    assert wrap_phase(2.5 * math.pi) == pytest.approx(0.5 * math.pi)


def test_wrapped_matches_unwrapped_fold():
    # the old fold, float(phi) % (2 pi) and its reflection, on the inputs where a reduction can slip
    def fold(phi):
        reduced = float(phi) % (2.0 * math.pi)
        return 2.0 * math.pi - reduced if reduced > math.pi else reduced

    edges = [0.0, -0.0, -1e-300, 5e-324, 2.0 * math.pi, -2.0 * math.pi, 1e300, -1e300]
    edges += [k * math.pi + d for k in range(-6, 7) for d in (-1e-15, 0.0, 1e-15)]
    edges += [phase_from_displacement(x, GEOM) for x in np.linspace(0.0, 0.1, 51)]
    for phi in edges:
        assert wrap_phase(phi).hex() == fold(phi).hex(), phi


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_wrap_phase_rejects_a_non_finite_phase(phi):
    # it returned nan: the reduction is canonical_phase's, which names the phase
    with pytest.raises(ValueError, match="^phase must be finite, got "):
        wrap_phase(phi)


def test_displacement_for_pi_phase():
    # frozen landmark of the default geometry
    x_pi = displacement_from_phase(math.pi, GEOM)
    assert x_pi == pytest.approx(7.922038874405478e-3, abs=1e-12)
    assert wrap_phase(phase_from_displacement(x_pi, GEOM)) == pytest.approx(math.pi, abs=1e-9)


def test_domain_errors():
    # a NaN displacement was reported as an overflow of the plate phase
    for x in (GEOM.max_displacement, math.nan, -math.inf):
        with pytest.raises(ValueError, match=r"^\|x\| must stay below radius\*index/ambient = "):
            phase_from_displacement(x, GEOM)
    with pytest.raises(ValueError):
        phase_via_refraction(0.2, GEOM)
    with pytest.raises(ValueError):
        displacement_from_phase(-0.1, GEOM)


# In this geometry the float just below radius * index / ambient_index has a ratio that rounds to 1,
# so 1 - ratio**2 is 0; the float below that still has a finite phase.
ROUNDING_GEOM = PlateGeometry(radius=0.8137822767518961, index=2.611310786603449, ambient_index=1.2146269283697027)
ROUNDING_X = 1.7495400337297062


def test_a_displacement_whose_ratio_rounds_to_1_is_out_of_range():
    assert math.nextafter(ROUNDING_X, math.inf) == ROUNDING_GEOM.max_displacement
    for x in (ROUNDING_X, -ROUNDING_X):
        with pytest.raises(ValueError, match=r"^\|x\| must stay below radius\*index/ambient = "):
            phase_from_displacement(x, ROUNDING_GEOM)
    assert 1e11 < phase_from_displacement(math.nextafter(ROUNDING_X, 0.0), ROUNDING_GEOM) < math.inf
