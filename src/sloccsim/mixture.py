"""Classical two-component mixtures and the mixing-weight estimator.

A source that emits particles of one exchange phase with probability w and
another with probability 1 - w produces a correlation that interpolates
linearly between the two pure values, so w can be read off a single
measured correlation once both phases are known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegeneratePhasesError
from .measurement import CoincidenceCounts, bootstrap_zz, correlation_scale
from .slocc import PreparationSettings, lr_kets
from .states import DensityMatrix4, canonical_phase, pure_densities

import numpy as np

# Below this contrast in cos(phi) the two components are indistinguishable.
MIN_COS_CONTRAST = 1e-6


@dataclass(frozen=True)
class MixtureSpec:
    """Weight of the first component and the two phases, at one beta."""

    weight: float
    phi1: float
    phi2: float
    beta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight must lie in [0, 1], got {self.weight!r}")
        if not 0.0 <= self.beta <= math.pi / 2 + 1e-12:
            raise ValueError(f"beta must lie in [0, pi/2], got {self.beta!r}")
        object.__setattr__(self, "phi1", canonical_phase(self.phi1))
        object.__setattr__(self, "phi2", canonical_phase(self.phi2))


def mixed_states(specs) -> np.ndarray:
    """The matrices of :func:`mixed_state` for a sequence of specs, as an (N, 4, 4) stack."""
    kets = lr_kets([PreparationSettings(s.beta, phi) for s in specs for phi in (s.phi1, s.phi2)])
    pairs = pure_densities(kets).reshape(-1, 2, 4, 4)
    w = np.array([s.weight for s in specs], dtype=np.float64)[:, None, None]
    return w * pairs[:, 0] + (1.0 - w) * pairs[:, 1]


def mixed_state(spec: MixtureSpec) -> DensityMatrix4:
    """w |psi(phi1)><psi(phi1)| + (1 - w) |psi(phi2)><psi(phi2)|."""
    return DensityMatrix4(mixed_states([spec])[0])


def mixture_expectation(spec: MixtureSpec) -> float:
    """sin(2 beta) * (w cos phi1 + (1 - w) cos phi2); linear in the weight."""
    blend = spec.weight * math.cos(spec.phi1) + (1.0 - spec.weight) * math.cos(spec.phi2)
    return math.sin(2.0 * spec.beta) * blend


@dataclass(frozen=True)
class MixtureEstimate:
    """Estimated weight of the first component."""

    p_hat: float  # clamped into [0, 1]
    p_raw: float  # as inverted; shot noise can push it slightly outside
    sigma: float


def estimate_p(
    zz_hat: float,
    phi1: float,
    phi2: float,
    beta: float,
    visibility: float,
    counts: CoincidenceCounts,
    n_boot: int = 1000,
    seed: int = 0,
) -> MixtureEstimate:
    """Invert the linear weight relation, with a parametric-bootstrap spread.

    The point estimate is (zz / (visibility * sin 2 beta) - cos phi2) divided
    by the cosine contrast; sigma is the sample standard deviation of the
    same inversion applied to bootstrap resamples of the counts.
    """
    contrast = math.cos(phi1) - math.cos(phi2)
    if abs(contrast) <= MIN_COS_CONTRAST:
        raise DegeneratePhasesError(
            "cos(phi1) equals cos(phi2); the weight does not affect the signal"
        )
    scale = correlation_scale(beta, visibility, counts, n_boot, "weight")
    cos2 = math.cos(phi2)
    p_raw = (zz_hat / scale - cos2) / contrast
    zz_res = bootstrap_zz(counts, n_boot, seed)
    p_res = (zz_res / scale - cos2) / contrast
    return MixtureEstimate(
        p_hat=min(max(p_raw, 0.0), 1.0),
        p_raw=p_raw,
        sigma=float(np.std(p_res, ddof=1)),
    )
