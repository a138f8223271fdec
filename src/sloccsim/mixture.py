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
from .measurement import correlation_scale, read_tallies, row_blocks
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


def mixture_expectation(weights, phi1: float, phi2: float, beta: float) -> np.ndarray:
    """sin(2 beta) * (w cos phi1 + (1 - w) cos phi2) per weight w, as float64; linear in the weight."""
    w = np.asarray(weights, dtype=np.float64)
    return math.sin(2.0 * beta) * (w * math.cos(phi1) + (1.0 - w) * math.cos(phi2))


@dataclass(frozen=True)
class MixtureEstimate:
    """Estimated weights of the first component, one per tally row, with their exact bootstrap spreads."""

    p_hat: np.ndarray  # clamped into [0, 1]
    p_raw: np.ndarray  # as inverted; shot noise can push it slightly outside
    sigma: np.ndarray
    zz_hat: np.ndarray  # each row's correlation, as ``read_tallies`` reads it


def cosine_contrast(phi1: float, phi2: float) -> float:
    """cos(phi1) - cos(phi2), which must exceed 1e-6 in size for the weight to show in zz."""
    contrast = math.cos(phi1) - math.cos(phi2)
    if abs(contrast) <= MIN_COS_CONTRAST:
        raise DegeneratePhasesError(
            "cos(phi1) equals cos(phi2); the weight does not affect the signal"
        )
    return contrast


def estimate_p(tallies, phi1: float, phi2: float, beta: float, visibility: float) -> MixtureEstimate:
    """Invert the linear weight relation for each row of a tally stack, as length-N float64 arrays.

    p_raw = (zz / (visibility * sin 2 beta) - cos phi2) / contrast, with zz_hat and zz_sigma
    from ``read_tallies``.  The weight is linear in zz, so sigma, its exact ("ideal")
    bootstrap sd, is zz_sigma / |visibility * sin 2 beta * contrast|.
    """
    contrast = cosine_contrast(phi1, phi2)
    scale = correlation_scale(beta, visibility, "weight")
    shape_error = "estimate_p takes a stack of N tally rows"
    zz_hat, zz_sigma = np.empty(len(tallies)), np.empty(len(tallies))
    for block in row_blocks(len(tallies)):
        _, zz_hat[block], zz_sigma[block] = read_tallies(tallies[block], shape_error, block.start)
    p_raw = (zz_hat / scale - math.cos(phi2)) / contrast
    return MixtureEstimate(
        p_hat=np.clip(p_raw, 0.0, 1.0),  # keeps a -0.0; np.maximum would turn it into 0.0
        p_raw=p_raw,
        sigma=zz_sigma / abs(scale * contrast),
        zz_hat=zz_hat,
    )
