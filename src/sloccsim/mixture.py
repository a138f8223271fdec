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
from .measurement import _same_and_total, _zz_spread, correlation_scale
from .slocc import PreparationSettings, lr_kets
from .states import ket_to_density

import numpy as np

# Below this contrast in cos(phi) the two components are indistinguishable.
MIN_COS_CONTRAST = 1e-6


def check_weight(weight: float) -> None:
    """The rule for the first component's weight: it must lie in [0, 1]."""
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {weight!r}")


def mixed_state(weights, phi1: float, phi2: float, beta: float) -> np.ndarray:
    """w |psi(phi1)><psi(phi1)| + (1 - w) |psi(phi2)><psi(phi2)| per weight w, as (N, 4, 4)."""
    for weight in weights:
        check_weight(weight)
    first, second = ket_to_density(lr_kets([PreparationSettings(beta, phi) for phi in (phi1, phi2)]))
    w = np.array(weights, dtype=np.float64)[:, None, None]
    return w * first + (1.0 - w) * second


def mixture_expectation(weight: float, phi1: float, phi2: float, beta: float) -> float:
    """sin(2 beta) * (w cos phi1 + (1 - w) cos phi2); linear in the weight."""
    blend = weight * math.cos(phi1) + (1.0 - weight) * math.cos(phi2)
    return math.sin(2.0 * beta) * blend


@dataclass(frozen=True)
class MixtureEstimate:
    """Estimated weight of the first component, with its exact bootstrap spread."""

    p_hat: float  # clamped into [0, 1]
    p_raw: float  # as inverted; shot noise can push it slightly outside
    sigma: float
    zz_hat: float  # the tally row's correlation, ``estimate_zz(counts)``


def cosine_contrast(phi1: float, phi2: float) -> float:
    """cos(phi1) - cos(phi2), which must exceed 1e-6 in size for the weight to show in zz."""
    contrast = math.cos(phi1) - math.cos(phi2)
    if abs(contrast) <= MIN_COS_CONTRAST:
        raise DegeneratePhasesError(
            "cos(phi1) equals cos(phi2); the weight does not affect the signal"
        )
    return contrast


def estimate_p(counts, phi1: float, phi2: float, beta: float, visibility: float) -> MixtureEstimate:
    """Invert the linear weight relation for one tally row (n13, n14, n23, n24).

    The point estimate is (zz / (visibility * sin 2 beta) - cos phi2) divided
    by the cosine contrast, with zz = ``estimate_zz(counts)``.  The weight is
    linear in zz, so sigma is the exact ("ideal") bootstrap standard
    deviation of zz, ``zz_spread(counts)``, over
    |visibility * sin 2 beta * contrast|.
    """
    contrast = cosine_contrast(phi1, phi2)
    scale = correlation_scale(beta, visibility, "weight")
    same, total = _same_and_total(counts)
    zz_hat = (same - (total - same)) / total
    p_raw = (zz_hat / scale - math.cos(phi2)) / contrast
    return MixtureEstimate(
        p_hat=min(max(p_raw, 0.0), 1.0),
        p_raw=p_raw,
        sigma=_zz_spread(same, total) / abs(scale * contrast),
        zz_hat=zz_hat,
    )
