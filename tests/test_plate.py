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


def test_zero_displacement_gives_zero_phase():
    phase = phase_from_displacement(0.0, GEOM)
    assert phase.unwrapped == 0.0
    assert phase.wrapped == 0.0


def test_phase_is_even_in_displacement():
    for x in (1e-3, 5e-3, 20e-3, 40e-3):
        assert phase_from_displacement(x, GEOM).unwrapped == pytest.approx(
            phase_from_displacement(-x, GEOM).unwrapped, abs=0.0
        )


def test_unwrapped_phase_strictly_increasing():
    xs = np.arange(0.0, 40.0e-3 + 1e-12, 0.5e-3)
    phases = [phase_from_displacement(x, GEOM).unwrapped for x in xs]
    diffs = np.diff(phases)
    assert np.all(diffs > 0.0)


def test_agrees_with_refraction_path():
    for x in np.linspace(-0.1, 0.1, 41):
        direct = phase_from_displacement(x, GEOM).unwrapped
        assert direct == pytest.approx(phase_via_refraction(x, GEOM), abs=1e-12)


def test_round_trip_phase_to_displacement():
    rng = np.random.default_rng(12)
    for phi in rng.uniform(0.0, 4.0 * math.pi, size=100):
        x = displacement_from_phase(phi, GEOM)
        back = phase_from_displacement(x, GEOM).unwrapped
        assert back == pytest.approx(phi, abs=1e-9)


def test_round_trip_displacement_to_phase():
    for x in (0.5e-3, 3e-3, 7.9e-3, 25e-3, 60e-3):
        phi = phase_from_displacement(x, GEOM).unwrapped
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
    for x in np.linspace(0.0, 0.1, 51):
        p = phase_from_displacement(x, GEOM)
        assert p.wrapped == pytest.approx(wrap_phase(p.unwrapped), abs=0.0)


def test_displacement_for_pi_phase():
    # frozen landmark of the default geometry
    x_pi = displacement_from_phase(math.pi, GEOM)
    assert x_pi == pytest.approx(7.922038874405478e-3, abs=1e-12)
    assert phase_from_displacement(x_pi, GEOM).wrapped == pytest.approx(math.pi, abs=1e-9)


def test_domain_errors():
    with pytest.raises(ValueError):
        phase_from_displacement(GEOM.max_displacement, GEOM)
    with pytest.raises(ValueError):
        phase_via_refraction(0.2, GEOM)
    with pytest.raises(ValueError):
        displacement_from_phase(-0.1, GEOM)
