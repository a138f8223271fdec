"""Amplitude algebra for two particles over the left/right x pseudospin basis.

Conventions fixed once for the whole package:

* pseudospin ``UP`` is horizontal polarization (H) and ``DOWN`` is vertical
  (V); the correspondence is global and never remapped;
* four-component kets and 4x4 matrices use the basis order
  ``[L-up R-up, L-up R-down, L-down R-up, L-down R-down]``;
* the global phase of a ket carries no physics, so ket comparisons test
  ``|<a|b>| = 1`` rather than componentwise equality.

The central object is :func:`joint_amplitude`, the no-label detection
amplitude for two independently prepared particles.  The statistics
parameter weights the exchanged term, and that single weight is the only
place where bosonic, fermionic or anyonic behaviour enters the package.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

ATOL = 1e-12
PSD_ATOL = 1e-10
NORM_ATOL = 1e-9  # input normalisation guard; internally produced kets hold 1e-12

TWO_PI = 2.0 * math.pi


def canonical_phase(x: float) -> float:
    """x reduced into [0, 2*pi), so that reducing twice equals reducing once.

    A bare ``x % TWO_PI`` rounds a tiny negative x up to exactly ``TWO_PI``,
    and turns an infinite or NaN x into NaN, which is rejected instead.
    """
    phi = float(x) % TWO_PI
    if math.isnan(phi):
        raise ValueError(f"phase must be finite, got {x!r}")
    return 0.0 if phi == TWO_PI else phi


class Pseudospin(IntEnum):
    """Internal two-level label; UP maps to H, DOWN to V, globally fixed."""

    UP = 0
    DOWN = 1


class Region(IntEnum):
    """Detection region: the left or right output arm."""

    LEFT = 0
    RIGHT = 1


@dataclass(frozen=True)
class DetectionMode:
    """One detector port: a region and the pseudospin it selects."""

    region: Region
    spin: Pseudospin


@dataclass(frozen=True)
class StatisticsParameter:
    """Exchange phase phi, stored canonically in [0, 2*pi)."""

    phi: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi", canonical_phase(self.phi))

    @property
    def eta(self) -> complex:
        """exp(i*phi), the weight attached to the exchanged amplitude."""
        return cmath.exp(1j * self.phi)

    @classmethod
    def bosonic(cls) -> "StatisticsParameter":
        return cls(0.0)

    @classmethod
    def fermionic(cls) -> "StatisticsParameter":
        return cls(math.pi)


@dataclass(frozen=True)
class SingleParticleState:
    """One particle spread over the two regions with a definite pseudospin."""

    amp_l: complex
    amp_r: complex
    spin: Pseudospin

    def __post_init__(self) -> None:
        object.__setattr__(self, "amp_l", complex(self.amp_l))
        object.__setattr__(self, "amp_r", complex(self.amp_r))
        norm_sq = abs(self.amp_l) ** 2 + abs(self.amp_r) ** 2
        if abs(norm_sq - 1.0) > ATOL:
            raise ValueError(
                f"amplitude pair is not normalised: |l|^2 + |r|^2 = {norm_sq!r}"
            )

    def overlap(self, mode: DetectionMode) -> complex:
        """<mode|state>: the region amplitude, gated by spin agreement."""
        if mode.spin is not self.spin:
            return 0j
        return self.amp_l if mode.region is Region.LEFT else self.amp_r


def joint_amplitude(
    chi_l: DetectionMode,
    chi_r: DetectionMode,
    first: SingleParticleState,
    second: SingleParticleState,
    eta: StatisticsParameter,
) -> complex:
    """Unnormalised amplitude for one detection per region.

    The direct term sends ``first`` to the left port and ``second`` to the
    right one; the exchanged term swaps those roles and is weighted by
    ``eta.eta``.  The left port must sit in region L and the right port in
    region R.
    """
    if chi_l.region is not Region.LEFT or chi_r.region is not Region.RIGHT:
        raise ValueError("ports must be one in the left region, one in the right")
    direct = first.overlap(chi_l) * second.overlap(chi_r)
    exchanged = second.overlap(chi_l) * first.overlap(chi_r)
    return direct + eta.eta * exchanged


@dataclass(frozen=True, eq=False)
class JointKet:
    """Two-particle state, one particle per region, in the fixed basis order."""

    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amps, dtype=np.complex128).reshape(4)
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def overlap(self, other: "JointKet") -> complex:
        """<self|other>."""
        return complex(np.vdot(self.amps, other.amps))

    def agrees_up_to_phase(self, other: "JointKet", atol: float = ATOL) -> bool:
        """Physical equality of unit kets: |<self|other>| = 1 within atol."""
        return abs(abs(self.overlap(other)) - 1.0) <= atol


@dataclass(frozen=True, eq=False)
class DensityMatrix4:
    """4x4 density matrix in the fixed basis, validated on construction.

    The one-matrix convenience over :func:`validate_densities`; the pipeline
    itself validates whole (N, 4, 4) stacks and builds none of these.
    Accepts Hermiticity and trace defects up to 1e-12 and eigenvalues down
    to -1e-10; anything worse raises.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.complex128).reshape(4, 4)
        validate_densities(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def validate_densities(matrices: np.ndarray) -> np.ndarray:
    """Return a (..., 4, 4) stack unchanged if every matrix passes DensityMatrix4's checks."""
    stack = matrices.reshape(-1, 4, 4)
    if not np.allclose(stack, stack.conj().swapaxes(1, 2), rtol=0.0, atol=ATOL):
        raise ValueError("density matrix is not Hermitian")
    traces = stack.trace(axis1=1, axis2=2)
    bad = np.abs(traces - 1.0) > ATOL
    if np.any(bad):
        raise ValueError(f"density matrix trace is {complex(traces[bad][0])!r}, expected 1")
    eigmin = np.linalg.eigvalsh(stack)[:, 0]
    bad = eigmin < -PSD_ATOL
    if np.any(bad):
        raise ValueError(f"density matrix has negative eigenvalue {float(eigmin[bad][0])!r}")
    return matrices


def ket_to_density(kets: np.ndarray) -> np.ndarray:
    """Rank-one projectors |k><k| of a (..., 4) stack of unit kets, as (..., 4, 4)."""
    norm_sq = (kets.conj()[..., None, :] @ kets[..., :, None]).real
    if not np.all(np.abs(norm_sq - 1.0) <= 2.0 * NORM_ATOL):  # a NaN fails this test
        raise ValueError("ket_to_density expects unit kets; rescale them to norm 1 first")
    return kets[..., :, None] * kets.conj()[..., None, :] / norm_sq


def fidelity_pure(rho: np.ndarray, target: JointKet) -> float:
    """<target|rho|target> for one (4, 4) density matrix, clipped into [0, 1] at the PSD tolerance.

    ``rho`` is a plain array, such as one row of ``reconstruct``'s stack.
    """
    if abs(target.norm() - 1.0) > NORM_ATOL:
        raise ValueError("fidelity target must be a unit ket")
    value = float(np.real(np.vdot(target.amps, rho @ target.amps)))
    if value < -PSD_ATOL or value > 1.0 + PSD_ATOL:
        raise ValueError(f"fidelity {value!r} is outside [0, 1] beyond tolerance")
    return min(max(value, 0.0), 1.0)
