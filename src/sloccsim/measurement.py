"""Pseudospin rotation, the coincidence observable, and its estimators.

The measured quantity is the z-basis correlation between the two regions:
the four coincidence tallies combine into (n13 + n24 - n14 - n23) / total,
an estimate of <sigma_z x sigma_z> on the rotated state.  Port numbering is
fixed: detectors 1 and 2 are the H and V ports in the left region, 3 and 4
the H and V ports in the right region, so channel 13 reads the population
of |L-up R-up| and so on down the diagonal.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import LowIndistinguishabilityError
from .states import ATOL, PSD_ATOL

# kron(R, R) of the single-spin pi/4 mixing R = [[1, -1], [1, 1]] / sqrt(2),
# written with exact +-0.5 entries so the two-spin rotation is exactly
# unitary in floating point.
ROTATION_PAIR = 0.5 * np.array(
    [
        [1.0, -1.0, -1.0, 1.0],
        [1.0, 1.0, -1.0, -1.0],
        [1.0, -1.0, 1.0, -1.0],
        [1.0, 1.0, 1.0, 1.0],
    ],
    dtype=np.complex128,
)
ROTATION_PAIR.setflags(write=False)

MIN_SIN_2BETA = 1e-6


def rotate_density(matrices: np.ndarray) -> np.ndarray:
    """The two-spin rotation applied by conjugation to a (..., 4, 4) stack."""
    # not einsum: it rounds differently, and an exact 0 probability turned
    # into 1e-17 changes how many draws the samplers consume
    return ROTATION_PAIR @ matrices @ ROTATION_PAIR.conj().T


def outcome_probs(rotated: np.ndarray) -> np.ndarray:
    """Coincidence probabilities (13, 14, 23, 24) of a (..., 4, 4) stack of rotated states."""
    diag = rotated.diagonal(axis1=-2, axis2=-1).real
    if float(diag.min()) < -PSD_ATOL:
        raise ValueError("density matrix diagonal is negative beyond tolerance")
    clipped = np.clip(diag, 0.0, None)
    total = clipped.sum(axis=-1, keepdims=True)
    if np.any(np.abs(total - 1.0) > 1e-9):
        raise ValueError("density matrix diagonal does not sum to 1")
    return clipped / total


def expectation_zz(rotated: np.ndarray) -> np.ndarray:
    """<sigma_z x sigma_z> of already-rotated states: p13 + p24 - p14 - p23."""
    p = outcome_probs(rotated)
    return p[..., 0] + p[..., 3] - p[..., 1] - p[..., 2]


def sample_counts(probs: np.ndarray, total: int, rngs, mode: str = "multinomial") -> np.ndarray:
    """Draw coincidence tallies for an (N, 4) stack of outcome probabilities.

    Row i draws from the i-th Generator of ``rngs``, which may yield one
    reused Generator moved to each row's stream (``sweeps.row_generators``).
    multinomial mode fixes the number of recorded pairs; poisson mode draws
    each channel independently with mean total * p, so the realised total
    fluctuates.  Returns the (N, 4) int64 tallies (n13, n14, n23, n24); sum
    a row's total as Python ints, since Poisson totals can pass 2**63 - 1.
    Identical (probs, total, generator states, mode) give identical counts.
    """
    if total < 1:
        raise ValueError("total must be at least 1")
    if mode not in ("multinomial", "poisson"):
        raise ValueError(f"unknown sampling mode {mode!r}")
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] != 4:
        raise ValueError(f"outcome probabilities must have shape (N, 4), got {probs.shape}")
    if not np.all((probs >= 0.0) & (probs <= 1.0)):  # a NaN fails both comparisons
        raise ValueError("outcome probabilities must lie in [0, 1]")
    if np.any(np.abs(probs.sum(axis=-1) - 1.0) > ATOL):
        raise ValueError("outcome probabilities must sum to 1")
    probs = probs / probs.sum(axis=-1, keepdims=True)
    tally = np.empty(probs.shape, dtype=np.int64)
    if mode == "multinomial":
        for row, p, rng in zip(tally, probs, rngs, strict=True):
            row[:] = rng.multinomial(total, p)
    else:
        # one scalar draw per channel consumes the stream as the array call does, faster
        for row, p, rng in zip(tally, probs.tolist(), rngs, strict=True):
            row[:] = [rng.poisson(total * v) for v in p]
    return tally


def _same_and_total(counts) -> tuple[int, int]:
    """(n13 + n24, total) of one nonempty tally row (n13, n14, n23, n24), as exact Python ints."""
    n13, n14, n23, n24 = counts
    ints = (int(n13), int(n14), int(n23), int(n24))
    if ints != (n13, n14, n23, n24) or min(ints) < 0:
        raise ValueError("counts must be nonnegative integers")
    total = sum(ints)
    if total < 1:
        raise ValueError("cannot estimate from zero counts")
    return ints[0] + ints[3], total


def estimate_zz(counts) -> float:
    """(n13 + n24 - n14 - n23) / total of one tally row."""
    same, total = _same_and_total(counts)
    return (same - (total - same)) / total


def bootstrap_zz(counts, n_boot: int, seed: int) -> np.ndarray:
    """Resampled correlation estimates of one tally row, at its empirical rates.

    zz depends on the tallies only through same = n13 + n24, and under a
    multinomial redraw of all four channels same is Bin(total, same / total);
    one binomial draw per resample therefore gives exactly the multinomial
    bootstrap's distribution.  The estimators use its exact spread instead
    (``zz_spread``); this Monte Carlo version is the reference it is tested
    against.
    """
    same, total = _same_and_total(counts)
    rng = np.random.default_rng(seed)
    draws = rng.binomial(total, same / total, size=n_boot)
    # draws - (total - draws) stays inside int64; 2 * draws leaves it for totals above 2**62
    return (draws - (total - draws)) / total


def correlation_scale(beta: float, visibility: float, noun: str) -> float:
    """visibility * sin(2 beta), after the input checks the phase and weight estimators share.

    ``noun`` names what the correlation would carry in the sin(2 beta) message.
    """
    sin_2b = math.sin(2.0 * beta)
    if sin_2b <= MIN_SIN_2BETA:
        raise LowIndistinguishabilityError(
            f"sin(2*beta) <= 1e-6: the correlation carries no {noun} information"
        )
    if not 0.0 < visibility <= 1.0:
        raise ValueError("visibility must lie in (0, 1]")
    scale = visibility * sin_2b
    if scale < sys.float_info.min:  # a subnormal scale overflows or divides by zero
        raise ValueError(
            f"visibility * sin(2*beta) = {scale!r} is below the smallest normal float"
        )
    return scale


# The exact bootstrap sums over same* = k within WINDOW_SIGMAS standard
# deviations of its mean.  The binomial mass left outside is below 5e-12 (the
# Poisson-like tail of a mean count of 1) and far smaller for larger counts.
# A window wider than MAX_SPAN lattice steps is replaced by a fixed-node
# normal rule, which bounds time and memory for any total.
WINDOW_SIGMAS = 12.0
MAX_SPAN = 4096


def zz_spread(counts) -> float:
    """Exact bootstrap standard deviation of zz for one tally row: 2 sqrt(q (1 - q) / total).

    q = (n13 + n24) / total.  This is ``bootstrap_zz``'s spread as the
    number of resamples goes to infinity (the "ideal bootstrap", Efron &
    Tibshirani 1993, ch. 6).
    """
    return _zz_spread(*_same_and_total(counts))


def _zz_spread(same: int, total: int) -> float:
    # sqrt(same * other / total) is the count's sd; exact integers keep q near 0 or 1 exact
    return 2.0 * math.sqrt(same * (total - same) / total) / total


def _phase_spread(same: int, total: int, scale: float) -> float:
    """Exact bootstrap standard deviation of arccos(clip(zz* / scale, -1, 1)).

    zz* = (2 k - total) / total with k ~ Bin(total, q); the sum runs over the lattice,
    or over the fixed normal nodes for a wide window.  Scaling, shift, exp and normalisation
    run in place; the reductions keep their order, as a reordered sum rounds differently.
    """
    other = total - same
    if same == 0 or other == 0:
        return 0.0
    zz0 = (same - other) / total  # exact integers, one rounding
    half = math.ceil(WINDOW_SIGMAS * math.sqrt(same * other / total))
    lattice = 2 * half <= MAX_SPAN
    if lattice:  # node j is the count k = same + j
        nodes = np.arange(-min(half, same), min(half, other) + 1, dtype=np.float64)
    else:
        nodes = np.linspace(-WINDOW_SIGMAS, WINDOW_SIGMAS, MAX_SPAN + 1)
    ratio = zz0 + (2.0 / total if lattice else _zz_spread(same, total)) * nodes
    ratio /= scale  # zz / scale is non-decreasing, so its two ends bound it
    if ratio[0] >= 1.0 or ratio[-1] <= -1.0:
        return 0.0  # every resample clamps to the same end
    weights = np.zeros(len(nodes)) if lattice else -0.5 * nodes**2  # log weights
    if lattice:  # pmf(k + 1) / pmf(k) = (other - j) / (same + j + 1) * same / other
        j = nodes[:-1]
        np.cumsum(np.log((other - j) / (same + 1.0 + j)) + math.log(same / other), out=weights[1:])
        weights -= weights.max()
    np.exp(weights, out=weights)
    weights /= weights.sum()
    if ratio[0] < -1.0 or ratio[-1] > 1.0:
        np.minimum(np.maximum(ratio, -1.0, out=ratio), 1.0, out=ratio)  # np.clip, minus its overhead
    phi = np.arccos(ratio, out=ratio)
    phi -= weights @ phi
    return math.sqrt(weights @ (phi * phi))


@dataclass(frozen=True)
class PhaseEstimate:
    """Exchange-phase point estimate with its exact bootstrap spread."""

    phi_hat: float
    sigma: float
    zz_hat: float
    zz_sigma: float
    clamped: bool  # the arccos argument fell outside [-1, 1] and was clipped


def estimate_phase(counts, beta: float, visibility: float) -> PhaseEstimate:
    """Invert zz = visibility * sin(2 beta) * cos(phi) for phi in [0, pi].

    Parameters
    ----------
    counts : sequence of int
        One tally row (n13, n14, n23, n24); zz_hat is ``estimate_zz`` of it,
        and its law propagates shot noise.
    beta : float
        Splitting angle in radians; sin(2 beta) must exceed 1e-6.
    visibility : float
        Scale factor of the error model, in (0, 1]; 1 means no correction.

    Returns
    -------
    PhaseEstimate
        phi_hat is the arccos of the clamped ratio.  zz_sigma and sigma are
        the exact ("ideal", infinitely many resamples) bootstrap standard
        deviations of zz and of the clamped arccos: zz depends on the counts
        only through same = n13 + n24 ~ Bin(total, q), so both are finite
        sums over that law (see ``zz_spread``).  sigma weights every count
        within 12 standard deviations of n13 + n24 by its binomial
        probability, or, when that window spans more than 4096 counts,
        4097 evenly spaced nodes by the normal density.  Both spreads are
        0 when q is 0 or 1, and sigma is 0 when every count in the window
        clamps to the same end.
    """
    scale = correlation_scale(beta, visibility, "phase")
    same, total = _same_and_total(counts)
    zz_hat = (same - (total - same)) / total
    ratio = zz_hat / scale
    return PhaseEstimate(
        phi_hat=math.acos(min(1.0, max(-1.0, ratio))),
        sigma=_phase_spread(same, total, scale),
        zz_hat=zz_hat,
        zz_sigma=_zz_spread(same, total),
        clamped=abs(ratio) > 1.0,
    )
