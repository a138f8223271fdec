"""Pseudospin rotation, the coincidence observable, and its estimators.

The measured quantity is the z-basis correlation between the two regions:
the four coincidence tallies combine into (n13 + n24 - n14 - n23) / total,
an estimate of <sigma_z x sigma_z> on the rotated state.  Port numbering is
fixed: detectors 1 and 2 are the H and V ports in the left region, 3 and 4
the H and V ports in the right region, so channel 13 reads the population
of |L-up R-up| and so on down the diagonal.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import LowIndistinguishabilityError, TallyRowError
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

SAMPLING_MODES = ("multinomial", "poisson")

# Rows per block wherever a stack is worked through in blocks (``row_blocks``): the
# sweeps' per-row stages and draws, the estimators and the CSV rows.  A (256, 4, 4)
# complex128 block is 64 KiB.
BLOCK_ROWS = 256


def rotate_density(matrices: np.ndarray) -> np.ndarray:
    """The two-spin rotation applied by conjugation to a (..., 4, 4) stack."""
    # not einsum: it rounds differently, and an exact 0 probability turned
    # into 1e-17 changes how many draws the samplers consume.  Two products
    # over the whole stack, R @ [M1 | ... | Mn] and then its 4 n rows @ R^H,
    # give each matrix the bits of R @ M @ R^H, in two BLAS calls, not 2 n.
    matrices = np.asarray(matrices)
    n, rows, cols = matrices.reshape(-1, *matrices.shape[-2:]).shape  # matmul rejects any but 4 x 4
    left = ROTATION_PAIR @ matrices.reshape(n, rows, cols).swapaxes(0, 1).reshape(rows, n * cols)
    right = left.reshape(4, n, cols).swapaxes(0, 1).reshape(4 * n, cols) @ ROTATION_PAIR.conj().T
    return right.reshape(matrices.shape)


def outcome_probs(rotated: np.ndarray) -> np.ndarray:
    """Coincidence probabilities (13, 14, 23, 24) of a (..., 4, 4) stack of rotated states."""
    diag = rotated.diagonal(axis1=-2, axis2=-1).real
    if not diag.min() >= -PSD_ATOL:  # a NaN fails each test
        raise ValueError("density matrix diagonal is negative beyond tolerance")
    clipped = np.clip(diag, 0.0, None)
    total = clipped.sum(axis=-1, keepdims=True)
    if not np.all(np.abs(total - 1.0) <= 1e-9):
        raise ValueError("density matrix diagonal does not sum to 1")
    return clipped / total


def check_sampling(mode: str) -> None:
    """The sampling rule: a mode of ``SAMPLING_MODES``."""
    if mode not in SAMPLING_MODES:
        raise ValueError(f"sampling must be one of {SAMPLING_MODES}, got {mode!r}")


def check_shots(shots: int) -> None:
    """The shots rule of every sampler: 1 to 2**63 - 1 draws, so that a drawn tally fits int64."""
    if not 1 <= shots < 2**63:
        raise ValueError(f"shots must be an integer in [1, 2**63 - 1], got {shots}")


def sample_counts(probs: np.ndarray, total: int, rngs, mode: str = "multinomial") -> np.ndarray:
    """Draw coincidence tallies for an (N, 4) stack of outcome probabilities.

    Row i draws from the i-th Generator of ``rngs``; ``total`` and ``mode``
    follow ``check_shots`` and ``check_sampling``.  multinomial mode fixes
    the number of recorded pairs; poisson mode draws each channel
    independently with mean total * p, so the realised total fluctuates.
    Returns the (N, 4) int64 tallies (n13, n14, n23, n24); sum a row's total
    as Python ints, since Poisson totals can pass 2**63 - 1.
    Identical (probs, total, generator states, mode) give identical counts.
    The whole stack is checked and renormalised before any row draws; the
    sweeps hand it one block at a time.  The draws are gathered in one list,
    which becomes the tally array in one ``np.array`` call.
    """
    check_shots(total)
    check_sampling(mode)
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] != 4:
        raise ValueError(f"outcome probabilities must have shape (N, 4), got {probs.shape}")
    if not np.all((probs >= 0.0) & (probs <= 1.0)):  # a NaN fails both comparisons
        raise ValueError("outcome probabilities must lie in [0, 1]")
    sums = probs.sum(axis=-1, keepdims=True)
    if np.any(np.abs(sums - 1.0) > ATOL):
        raise ValueError("outcome probabilities must sum to 1")
    probs = probs / sums
    if mode == "multinomial":
        draws = [rng.multinomial(total, p) for p, rng in zip(probs, rngs, strict=True)]
    else:
        # one scalar draw per channel consumes the stream as the array call does, faster;
        # total * probs rounds as total * v does, since a total below 2**63 converts alike
        means = (total * probs).tolist()
        draws = [rng.poisson(mean) for row, rng in zip(means, rngs, strict=True) for mean in row]
    return np.array(draws, dtype=np.int64).reshape(probs.shape)


def _zz(same, total):
    # on int64 bootstrap draws same - (total - same) stays inside int64; 2 * same - total leaves it above 2**62
    return (same - (total - same)) / total


def bootstrap_zz(counts, n_boot: int, seed: int) -> np.ndarray:
    """Resampled correlation estimates of one tally row, at its empirical rates.

    zz depends on the tallies only through same = n13 + n24, and under a
    multinomial redraw of all four channels same is Bin(total, same / total);
    one binomial draw per resample therefore gives exactly the multinomial
    bootstrap's distribution.  The estimators use its exact spread instead
    (the zz_sigma column of ``read_tallies``, which reads this row too); this
    Monte Carlo version is the reference it is tested against.
    """
    [(same, total)] = read_tallies([counts], "bootstrap_zz takes one tally row (n13, n14, n23, n24)")[0]
    rng = np.random.default_rng(seed)
    return _zz(rng.binomial(total, same / total, size=n_boot), total)


def correlation_scale(beta: float, visibility: float, noun: str) -> float:
    """visibility * sin(2 beta), after the input checks the phase and weight estimators share.

    ``noun`` names what the correlation would carry in the sin(2 beta) message.
    """
    if not math.isfinite(beta):  # sin would pass a NaN on, or raise a bare domain error for inf
        raise ValueError(f"beta must be finite, got {beta!r}")
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
# normal rule, which bounds time and memory for any total; its nodes (in standard
# deviations) and normalised weights are built once, read-only.  Lattice rows are
# summed in blocks of at most BLOCK_NODES nodes; a wider window fills a block alone.
WINDOW_SIGMAS = 12.0
MAX_SPAN = 4096
BLOCK_NODES = 1 << 14
_NORMAL_NODES = np.linspace(-WINDOW_SIGMAS, WINDOW_SIGMAS, MAX_SPAN + 1)
_NORMAL_WEIGHTS = np.exp(-0.5 * _NORMAL_NODES**2)
_NORMAL_WEIGHTS /= _NORMAL_WEIGHTS.sum()
_NORMAL_NODES.setflags(write=False)
_NORMAL_WEIGHTS.setflags(write=False)


def _zz_spread(same: int, total: int) -> float:
    """The B -> inf ("ideal") bootstrap sd of zz, 2 sqrt(q (1 - q) / total) for q = same / total."""
    # sqrt(same * other / total) is the count's sd; exact integers keep q near 0 or 1 exact
    return 2.0 * math.sqrt(same * (total - same) / total) / total


def row_blocks(n: int):
    """Slices of consecutive BLOCK_ROWS-row blocks covering n rows; the last may be shorter."""
    return (slice(start, start + BLOCK_ROWS) for start in range(0, n, BLOCK_ROWS))


def read_tallies(tallies, shape_error: str, start: int = 0) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
    """Each row's exact (same, total), and its zz and exact bootstrap sd as float64 columns.

    ``tallies``: rows (n13, n14, n23, n24) of Python ints, which may pass 2**63, or an
    (n, 4) int array, which one ``tolist`` turns into Python ints.  The estimators hand
    it their stack one ``row_blocks`` block at a time, ``start`` being the block's first
    row.  This is the one reader of a tally row: a flat stack or a row of other than
    four entries raises ``ValueError(shape_error)``; a cell that is no nonnegative
    integer, or a row that sums to 0, raises a ``TallyRowError`` naming its index in
    the stack, ``start`` plus its place here.
    """
    if isinstance(tallies, np.ndarray):
        tallies = tallies.tolist()  # exact Python ints, which read faster than numpy scalars
    if any(np.ndim(row) != 1 for row in tallies[:1]):
        raise ValueError(shape_error)
    rows = []
    for index, counts in enumerate(tallies, start):
        try:
            n13, n14, n23, n24 = counts
        except (TypeError, ValueError):  # a scalar row, or one of another length
            raise ValueError(shape_error) from None
        try:
            ints = (int(n13), int(n14), int(n23), int(n24))
        except (TypeError, ValueError, OverflowError):  # None, a list, a NaN or an infinity
            ints = None
        if ints is None or ints != (n13, n14, n23, n24) or min(ints) < 0:
            raise TallyRowError(index, "counts must be nonnegative integers")
        total = sum(ints)
        if total < 1:
            raise TallyRowError(index, "cannot estimate from zero counts")
        rows.append((ints[0] + ints[3], total))  # (n13 + n24, total) as exact Python ints
    zz_hat = np.array([_zz(same, total) for same, total in rows], dtype=np.float64)
    return rows, zz_hat, np.array([_zz_spread(same, total) for same, total in rows], dtype=np.float64)


def _phase_spread(rows) -> np.ndarray:
    """Exact bootstrap sd of arccos(clip(zz* / scale, -1, 1)) for each (same, total, scale) row.

    zz* = (2 k - total) / total, k ~ Bin(total, q), over the lattice or the fixed normal nodes.
    """
    sigma, lattice = np.zeros(len(rows)), []
    for index, (same, total, scale) in enumerate(rows):
        other = total - same
        if same == 0 or other == 0:
            continue
        zz0 = _zz(same, total)  # exact integers, one rounding
        half = math.ceil(WINDOW_SIGMAS * math.sqrt(same * other / total))
        if 2 * half > MAX_SPAN:
            ratio = (zz0 + _zz_spread(same, total) * _NORMAL_NODES) / scale
            if not (ratio[0] >= 1.0 or ratio[-1] <= -1.0):  # else every resample clamps to the same end
                sigma[index] = _arccos_sd(ratio[None], _NORMAL_WEIGHTS[None], [len(_NORMAL_NODES)])[0]
            continue
        lo, hi = -min(half, same), min(half, other)  # node j is the count k = same + j
        step = 2.0 / total
        first, last = (zz0 + step * lo) / scale, (zz0 + step * hi) / scale  # zz / scale rises with j
        if not (first >= 1.0 or last <= -1.0):  # else every resample clamps to the same end
            # other, same + 1 and log(same / other) rounded as the one-row sum rounds them
            terms = (lo, hi - 1, zz0, step, scale, float(other), same + 1.0, math.log(same / other))
            lattice.append((hi - lo + 1, index, hi, terms))
    lattice.sort()  # short windows first, so that a block pads little
    constants = np.array([row[3] for row in lattice]).reshape(len(lattice), 8)
    start = 0
    while start < len(lattice):
        stop = start + 1
        while stop < len(lattice) and (stop + 1 - start) * lattice[stop][0] <= BLOCK_NODES:
            stop += 1
        sigma[[row[1] for row in lattice[start:stop]]] = _lattice_block(lattice[start:stop], constants[start:stop])
        start = stop
    return sigma


def _lattice_block(block, constants: np.ndarray) -> list[float]:
    """Phase spreads of lattice rows sorted by window length: no pass here depends on the padding.

    No more than two (rows, width) arrays are alive at a time: the nodes are
    built only once the weights are done.
    """
    lengths = [row[0] for row in block]
    width = lengths[-1]
    padded = block[: lengths.index(width)]  # rows are sorted: the ones before the first full-width row
    lo, top, zz0, step, scale, other, same_1, log_q = constants.T[:, :, None]
    # pmf(k + 1) / pmf(k) = (other - j) / (same + j + 1) * same / other at node j.  A pad step is
    # taken at top = hi - 1, where other - j >= 1, then set to 0, so no pad tops its row.
    j = lo + np.arange(width - 1, dtype=np.float64)
    np.minimum(j, top, out=j)
    steps = other - j
    steps /= np.add(j, same_1, out=j)
    del j
    np.log(steps, out=steps)
    steps += log_q
    for row, (n, *_) in enumerate(padded):
        steps[row, n - 1 :] = 0.0
    log_pmf = np.zeros((len(lengths), width))
    np.add.accumulate(steps, axis=1, out=log_pmf[:, 1:])
    del steps
    log_pmf -= log_pmf.max(axis=1, keepdims=True)
    weights = np.exp(log_pmf, out=log_pmf)
    sums, start = np.empty(len(lengths)), 0
    for n, group in itertools.groupby(lengths):  # pairwise summation: one call per length
        stop = start + len(list(group))
        np.add.reduce(weights[start:stop, :n], axis=1, out=sums[start:stop])
        start = stop
    weights /= sums[:, None]
    nodes = lo + np.arange(width, dtype=np.float64)
    for row, (n, _, hi, _) in enumerate(padded):
        nodes[row, n:] = hi
    nodes *= step
    nodes += zz0
    nodes /= scale
    return _arccos_sd(nodes, weights, lengths)


def _arccos_sd(ratio: np.ndarray, weights: np.ndarray, lengths) -> list[float]:
    """sqrt(sum w (phi - sum w phi)**2), phi = arccos(clip(ratio, -1, 1)), on each row's first n."""
    np.minimum(np.maximum(ratio, -1.0, out=ratio), 1.0, out=ratio)  # np.clip, minus its overhead
    phi = np.arccos(ratio, out=ratio)
    rows = [(w[:n], p[:n]) for w, p, n in zip(weights, phi, lengths)]
    phi -= np.array([w.dot(p) for w, p in rows])[:, None]
    phi *= phi
    return [math.sqrt(w.dot(p)) for w, p in rows]


@dataclass(frozen=True)
class PhaseEstimate:
    """Exchange-phase estimates of a tally stack, one per row, with their exact bootstrap spreads."""

    phi_hat: np.ndarray
    sigma: np.ndarray
    zz_hat: np.ndarray
    zz_sigma: np.ndarray
    clamped: int  # rows whose arccos argument fell outside [-1, 1] and was clipped


def estimate_phase(tallies, betas, visibility: float) -> PhaseEstimate:
    """Invert zz = visibility * sin(2 beta) * cos(phi) for phi in [0, pi], row by row.

    ``tallies``: a stack as ``read_tallies`` takes it; ``betas``: N angles in radians with
    sin(2 beta) > 1e-6; ``visibility`` in (0, 1].  Length-N arrays: zz_hat and zz_sigma from
    ``read_tallies``, phi_hat the arccos of the clamped ratio and sigma its exact bootstrap
    sd (``_phase_spread``); ``clamped`` counts the rows whose ratio was clamped.
    """
    shape_error = "estimate_phase takes a stack of N tally rows and N angles"
    if np.ndim(betas) != 1 or len(betas) != len(tallies):
        raise ValueError(shape_error)
    scales = {beta: correlation_scale(beta, visibility, "phase") for beta in dict.fromkeys(betas)}
    phi_hat, sigma, zz_hat, zz_sigma = (np.empty(len(betas)) for _ in range(4))
    clamped = 0
    for block in row_blocks(len(betas)):  # per-row Python objects live for one block
        rows, zz_hat[block], zz_sigma[block] = read_tallies(tallies[block], shape_error, block.start)
        rows = [(same, total, scales[beta]) for (same, total), beta in zip(rows, betas[block])]
        ratios = [zz / scale for zz, (_, _, scale) in zip(zz_hat[block].tolist(), rows)]
        phi_hat[block] = [math.acos(min(1.0, max(-1.0, ratio))) for ratio in ratios]
        sigma[block] = _phase_spread(rows)
        clamped += sum(abs(ratio) > 1.0 for ratio in ratios)
    return PhaseEstimate(phi_hat=phi_hat, sigma=sigma, zz_hat=zz_hat, zz_sigma=zz_sigma, clamped=clamped)
