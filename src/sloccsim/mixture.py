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
from .measurement import correlation_scale, zz_spread
from .slocc import PreparationSettings, lr_kets
from .states import canonical_phase, ket_to_density

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


def mixed_state(specs) -> np.ndarray:
    """w |psi(phi1)><psi(phi1)| + (1 - w) |psi(phi2)><psi(phi2)| for each spec, as (N, 4, 4)."""
    kets = lr_kets([PreparationSettings(s.beta, phi) for s in specs for phi in (s.phi1, s.phi2)])
    pairs = ket_to_density(kets).reshape(-1, 2, 4, 4)
    w = np.array([s.weight for s in specs], dtype=np.float64)[:, None, None]
    return w * pairs[:, 0] + (1.0 - w) * pairs[:, 1]


def mixture_expectation(spec: MixtureSpec) -> float:
    """sin(2 beta) * (w cos phi1 + (1 - w) cos phi2); linear in the weight."""
    blend = spec.weight * math.cos(spec.phi1) + (1.0 - spec.weight) * math.cos(spec.phi2)
    return math.sin(2.0 * spec.beta) * blend


@dataclass(frozen=True)
class MixtureEstimate:
    """Estimated weight of the first component, with its exact bootstrap spread."""

    p_hat: float  # clamped into [0, 1]
    p_raw: float  # as inverted; shot noise can push it slightly outside
    sigma: float


def estimate_p(
    zz_hat: float,
    phi1: float,
    phi2: float,
    beta: float,
    visibility: float,
    counts,
) -> MixtureEstimate:
    """Invert the linear weight relation, with the exact bootstrap spread.

    ``counts`` is the tally row (n13, n14, n23, n24) behind zz_hat.  The
    point estimate is (zz / (visibility * sin 2 beta) - cos phi2) divided
    by the cosine contrast.  The weight is linear in zz, so sigma is the
    exact ("ideal") bootstrap standard deviation of zz, ``zz_spread(counts)``,
    over |visibility * sin 2 beta * contrast|.
    """
    contrast = math.cos(phi1) - math.cos(phi2)
    if abs(contrast) <= MIN_COS_CONTRAST:
        raise DegeneratePhasesError(
            "cos(phi1) equals cos(phi2); the weight does not affect the signal"
        )
    scale = correlation_scale(beta, visibility, counts, "weight")
    p_raw = (zz_hat / scale - math.cos(phi2)) / contrast
    return MixtureEstimate(
        p_hat=min(max(p_raw, 0.0), 1.0),
        p_raw=p_raw,
        sigma=zz_spread(counts) / abs(scale * contrast),
    )
