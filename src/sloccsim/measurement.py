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
from dataclasses import dataclass

import numpy as np

from .errors import LowIndistinguishabilityError
from .states import ATOL, PSD_ATOL, JointKet

ROTATION_SINGLE = np.array([[1.0, -1.0], [1.0, 1.0]], dtype=np.complex128) / math.sqrt(2.0)

# kron(ROTATION_SINGLE, ROTATION_SINGLE) written with exact +-0.5 entries so
# the two-spin rotation is exactly unitary in floating point.
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


def apply_rotation(ket: JointKet) -> JointKet:
    """Rotate both pseudospins by the fixed pi/4 mixing."""
    return JointKet(ROTATION_PAIR @ ket.amps)


def rotate_density(matrices: np.ndarray) -> np.ndarray:
    """The two-spin rotation applied by conjugation to a (..., 4, 4) stack."""
    # not einsum: it rounds differently, and an exact 0 probability turned
    # into 1e-17 changes how many draws the samplers consume
    return ROTATION_PAIR @ matrices @ ROTATION_PAIR.conj().T


@dataclass(frozen=True)
class OutcomeProbs:
    """Probabilities of the four coincidences (13, 14, 23, 24); sum is 1."""

    p13: float
    p14: float
    p23: float
    p24: float

    def __post_init__(self) -> None:
        # plain floats: one object per sampled row, and a NaN fails the range test
        vals = (self.p13, self.p14, self.p23, self.p24)
        if not all(0.0 <= v <= 1.0 for v in vals):
            raise ValueError("outcome probabilities must lie in [0, 1]")
        if abs(sum(vals) - 1.0) > ATOL:
            raise ValueError("outcome probabilities must sum to 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.p13, self.p14, self.p23, self.p24])


def outcome_probs(rotated: np.ndarray) -> np.ndarray:
    """Coincidence probabilities (13, 14, 23, 24) of a (..., 4, 4) stack of rotated states.

    Wrap one state's row as ``OutcomeProbs(*row)`` to sample it.
    """
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


@dataclass(frozen=True)
class CoincidenceCounts:
    """Event tallies for the four coincidence channels of one setting."""

    n13: int
    n14: int
    n23: int
    n24: int
    total: int

    def __post_init__(self) -> None:
        channels = (self.n13, self.n14, self.n23, self.n24)
        if any(int(v) != v or v < 0 for v in channels):
            raise ValueError("counts must be nonnegative integers")
        if sum(channels) != self.total:
            raise ValueError("channel counts must sum to total")

    @classmethod
    def from_channels(cls, n13, n14, n23, n24) -> "CoincidenceCounts":
        vals = (int(n13), int(n14), int(n23), int(n24))
        return cls(*vals, total=sum(vals))

    def as_array(self) -> np.ndarray:
        return np.array([self.n13, self.n14, self.n23, self.n24], dtype=np.int64)


def sample_counts(
    probs: OutcomeProbs, total: int, seed: int, mode: str = "multinomial"
) -> CoincidenceCounts:
    """Draw coincidence tallies for one measurement setting.

    multinomial mode fixes the number of recorded pairs; poisson mode draws
    each channel independently with mean total * p, so the realised total
    fluctuates.  Identical (probs, total, seed, mode) give identical counts.
    """
    if total < 1:
        raise ValueError("total must be at least 1")
    rng = np.random.default_rng(seed)
    p = probs.as_array()
    p = p / p.sum()
    if mode == "multinomial":
        draws = rng.multinomial(total, p)
    elif mode == "poisson":
        draws = rng.poisson(total * p)
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    return CoincidenceCounts.from_channels(*draws)


def estimate_zz(counts: CoincidenceCounts) -> float:
    """(n13 + n24 - n14 - n23) / total."""
    if counts.total < 1:
        raise ValueError("cannot estimate from zero counts")
    return (counts.n13 + counts.n24 - counts.n14 - counts.n23) / counts.total


def bootstrap_zz(counts: CoincidenceCounts, n_boot: int, seed: int) -> np.ndarray:
    """Resampled correlation estimates at the empirical rates.

    zz depends on the tallies only through same = n13 + n24, and under a
    multinomial redraw of all four channels same is Bin(total, same / total);
    one binomial draw per resample therefore gives exactly the multinomial
    bootstrap's distribution.
    """
    rng = np.random.default_rng(seed)
    same = rng.binomial(counts.total, (counts.n13 + counts.n24) / counts.total, size=n_boot)
    # same - (total - same) stays inside int64; 2 * same leaves it for totals above 2**62
    return (same - (counts.total - same)) / counts.total


def correlation_scale(
    beta: float, visibility: float, counts: CoincidenceCounts, n_boot: int, noun: str
) -> float:
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
    if n_boot < 100:
        raise ValueError("need at least 100 bootstrap resamples")
    if counts.total < 1:
        raise ValueError("counts are empty")
    return visibility * sin_2b


@dataclass(frozen=True)
class PhaseEstimate:
    """Exchange-phase point estimate with a parametric-bootstrap spread."""

    phi_hat: float
    sigma: float
    zz_hat: float
    zz_sigma: float
    clamped: bool  # the arccos argument fell outside [-1, 1] and was clipped


def estimate_phase(
    zz_hat: float,
    beta: float,
    visibility: float,
    counts: CoincidenceCounts,
    n_boot: int = 1000,
    seed: int = 0,
) -> PhaseEstimate:
    """Invert zz = visibility * sin(2 beta) * cos(phi) for phi in [0, pi].

    Parameters
    ----------
    zz_hat : float
        Measured z-basis correlation, normally ``estimate_zz(counts)``.
    beta : float
        Splitting angle in radians; sin(2 beta) must exceed 1e-6.
    visibility : float
        Scale factor of the error model, in (0, 1]; 1 means no correction.
    counts : CoincidenceCounts
        Tallies behind zz_hat, resampled to propagate shot noise.
    n_boot : int
        Number of bootstrap resamples, at least 100.
    seed : int
        RNG seed for the resampling stream.

    Returns
    -------
    PhaseEstimate
        phi_hat is the arccos of the clamped ratio; sigma is the sample
        standard deviation of the resampled phases.
    """
    scale = correlation_scale(beta, visibility, counts, n_boot, "phase")
    ratio = zz_hat / scale
    clamped = abs(ratio) > 1.0
    phi_hat = math.acos(min(1.0, max(-1.0, ratio)))
    zz_res = bootstrap_zz(counts, n_boot, seed)
    phi_res = np.arccos(np.clip(zz_res / scale, -1.0, 1.0))
    return PhaseEstimate(
        phi_hat=phi_hat,
        sigma=float(np.std(phi_res, ddof=1)),
        zz_hat=float(zz_hat),
        zz_sigma=float(np.std(zz_res, ddof=1)),
        clamped=clamped,
    )
