"""Tilted-plate geometry: drive displacement versus added optical phase.

A glass plate of given thickness rotates about an arm of given radius.
Pushing the drive by x tilts the plate so that sin(incidence) = x / radius;
the longer internal path adds phase relative to the untouched twin plate.
Zero displacement is calibrated to zero phase, and only the relative phase
modulo reflection matters downstream, so ``wrap_phase`` folds the raw
monotone phase into [0, pi] through ``states.canonical_phase``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .states import TWO_PI, canonical_phase


@dataclass(frozen=True)
class PlateGeometry:
    """Plate and drive constants, all lengths in meters."""

    thickness: float = 199.94e-6
    index: float = 1.5
    ambient_index: float = 1.0
    radius: float = 102.36e-3
    wavelength: float = 800e-9

    def __post_init__(self) -> None:
        if not all(0.0 < length < math.inf for length in (self.thickness, self.radius, self.wavelength)):
            raise ValueError("thickness, radius and wavelength must be positive and finite")
        if not self.index > self.ambient_index >= 1.0:
            raise ValueError("plate index must exceed the ambient index (>= 1)")
        if not math.isfinite(self.phase_scale):
            raise ValueError(
                f"plate phase scale 2*pi*index*thickness/wavelength = {self.phase_scale!r}"
                " is not finite"
            )

    @property
    def max_displacement(self) -> float:
        """Displacement at which the refraction expression loses meaning."""
        return self.radius * self.index / self.ambient_index

    @property
    def phase_scale(self) -> float:
        """2*pi*index*thickness / wavelength, the phase unit of the plate."""
        return 2.0 * math.pi * self.index * self.thickness / self.wavelength


def wrap_phase(phi: float) -> float:
    """Fold a finite phase into [0, pi] by reflection mod 2*pi; cosine is preserved."""
    reduced = canonical_phase(phi)
    return TWO_PI - reduced if reduced > math.pi else reduced


def phase_from_displacement(x: float, geom: PlateGeometry) -> float:
    """Closed-form unwrapped phase, monotone in |x|, for drive displacement x (meters); see ``wrap_phase``."""
    limit = geom.max_displacement
    ratio = x * geom.ambient_index / (geom.radius * geom.index)
    # an x just below the limit can still round its ratio to 1; a NaN fails both tests
    if not (abs(x) < limit and abs(ratio) < 1.0):
        raise ValueError(f"|x| must stay below radius*index/ambient = {limit!r} m, got {x!r}")
    raw = geom.phase_scale * (1.0 / math.sqrt(1.0 - ratio * ratio) - 1.0)
    if not math.isfinite(raw):
        raise ValueError(f"the plate phase at x = {x!r} m overflows")
    return raw
