"""The amplitude-rule reference model that the closed-form kets are checked against.

The program builds the post-selected state from its closed form,
``slocc.lr_ket_blocks``.  This module derives the same state step by step,
as the scheme describes it, so that tests can hold the closed form to it:

* the amplitude rule: :func:`joint_amplitude` is the no-label detection
  amplitude of two independently prepared particles.  The statistics
  parameter weights the exchanged term, and that single weight is the only
  place where bosonic, fermionic or anyonic behaviour enters the model;
* the deformation over the left and right regions (:func:`deform`) and the
  one-detection-per-region post-selection (:func:`project_slocc`), which
  turns the exchange phase into entanglement;
* the entropic indistinguishability of the two coincidence paths;
* the plate's inverse map, displacement from phase, and the z-basis
  correlation of rotated states.

Conventions are the package's: pseudospin ``UP`` is H and ``DOWN`` is V,
and four-component kets use the basis order
``[L-up R-up, L-up R-down, L-down R-up, L-down R-down]``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from sloccsim import PlateGeometry, outcome_probs
from sloccsim.states import ATOL, canonical_phase

# Below this success probability the post-selected state is undefined.
P_LR_FLOOR = 1e-12


class DegenerateStateError(ValueError):
    """A state vector or amplitude pair has numerically zero norm."""


class PostSelectionError(ValueError):
    """The one-particle-per-region sector is empty; no coincidence can occur."""


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


@dataclass(frozen=True)
class DeformedPair:
    """Region amplitudes of the two particles: (l, r) and primed (lp, rp).

    The first particle carries pseudospin UP, the second DOWN; both pairs
    must be unit-normalised.  Build instances through :func:`deform`, which
    renormalises small defects.
    """

    l: complex
    r: complex
    lp: complex
    rp: complex
    eta: StatisticsParameter

    def __post_init__(self) -> None:
        for name in ("l", "r", "lp", "rp"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        for a, b in ((self.l, self.r), (self.lp, self.rp)):
            norm_sq = abs(a) ** 2 + abs(b) ** 2
            if abs(norm_sq - 1.0) > ATOL:
                raise ValueError(
                    "DeformedPair amplitudes must be unit-normalised; use deform()"
                )


def deform(l, r, lp, rp, eta: StatisticsParameter) -> DeformedPair:
    """Build a DeformedPair, renormalising pairs that are off by at most 1e-9."""
    fixed = []
    for a, b in ((l, r), (lp, rp)):
        a, b = complex(a), complex(b)
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        if norm <= 1e-15:
            raise DegenerateStateError("amplitude pair has zero norm")
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"amplitude pair norm {norm!r} is too far from 1")
        fixed.extend((a / norm, b / norm))
    return DeformedPair(fixed[0], fixed[1], fixed[2], fixed[3], eta)


@dataclass(frozen=True)
class SloccResult:
    """Post-selected (4,) ket, its success probability, and the path entropy."""

    ket: np.ndarray
    p_lr: float
    indist: float


def project_slocc(pair: DeformedPair) -> SloccResult:
    """Project onto one-detection-per-region and renormalise.

    For opposite input pseudospins the kept amplitudes are l*rp on
    |L-up R-down> and eta*r*lp on |L-down R-up>; the equal-spin components
    vanish identically.
    """
    first = SingleParticleState(pair.l, pair.r, Pseudospin.UP)
    second = SingleParticleState(pair.lp, pair.rp, Pseudospin.DOWN)
    amps = np.array(
        [
            joint_amplitude(
                DetectionMode(Region.LEFT, spin_l),
                DetectionMode(Region.RIGHT, spin_r),
                first,
                second,
                pair.eta,
            )
            for spin_l in (Pseudospin.UP, Pseudospin.DOWN)
            for spin_r in (Pseudospin.UP, Pseudospin.DOWN)
        ],
        dtype=np.complex128,
    )
    p_lr = float(np.sum(np.abs(amps) ** 2))
    if p_lr <= P_LR_FLOOR:
        raise PostSelectionError("no one-per-region component to post-select")
    return SloccResult(ket=amps / math.sqrt(p_lr), p_lr=p_lr, indist=indistinguishability(pair))


def _binary_entropy(w: float) -> float:
    # 0*log(0) -> 0 by continuity
    if w <= 0.0 or w >= 1.0:
        return 0.0
    return -w * math.log2(w) - (1.0 - w) * math.log2(1.0 - w)


def indistinguishability(pair: DeformedPair) -> float:
    """Entropy of the two coincidence paths; 1 means no which-way information."""
    w_direct = abs(pair.l * pair.rp) ** 2
    w_exchanged = abs(pair.lp * pair.r) ** 2
    total = w_direct + w_exchanged
    if total <= P_LR_FLOOR:
        raise PostSelectionError(
            "post-selection impossible; indistinguishability undefined"
        )
    return _binary_entropy(w_direct / total)


def beta_indistinguishability(beta: float) -> float:
    """Indistinguishability of the half/half versus (sin b, cos b) preparation."""
    return _binary_entropy(math.cos(beta) ** 2)


def displacement_from_phase(phi_raw: float, geom: PlateGeometry) -> float:
    """Drive displacement (meters) producing the given unwrapped phase."""
    if phi_raw < 0.0:
        raise ValueError("phi_raw must be nonnegative")
    inner = 1.0 / (1.0 + phi_raw / geom.phase_scale)
    return geom.max_displacement * math.sqrt(1.0 - inner * inner)


def expectation_zz(rotated: np.ndarray) -> np.ndarray:
    """<sigma_z x sigma_z> of already-rotated states: p13 + p24 - p14 - p23."""
    p = outcome_probs(rotated)
    return p[..., 0] + p[..., 3] - p[..., 1] - p[..., 2]
