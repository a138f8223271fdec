"""Nine-setting two-qubit state tomography with linear inversion.

Per setting the two pseudospins are measured along a pair of Pauli axes and
events are sorted into the four joint eigenvalue sectors.  Correlators feed
the reconstruction directly; single-side terms come from marginals averaged
over the partner axis, which keeps the inversion exact on infinite-shot
data.  Projecting the eigenvalues onto the probability simplex, for the
whole stack at once, restores physicality before any parameter is read off.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ExtractionError
from .measurement import check_shots, row_blocks
from .slocc import lr_ket_blocks
from .states import canonical_phase, fidelity_pure, validate_densities

_SQRT_HALF = 1.0 / math.sqrt(2.0)

PAULI = {
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
}

AXES = ("X", "Y", "Z")

# eigenvectors for the +1 and -1 outcomes, indexed (axis, outcome, amplitude)
_EIGVECS = np.array(
    [
        [[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]],
        [[_SQRT_HALF, 1.0j * _SQRT_HALF], [_SQRT_HALF, -1.0j * _SQRT_HALF]],
        [[1.0, 0.0], [0.0, 1.0]],
    ],
    dtype=np.complex128,
)

# The projection ket of every joint outcome, indexed (setting, sector,
# amplitude): settings row-major over AXES, sectors ordered (++, +-, -+, --).
SECTOR_KETS = (
    _EIGVECS[:, None, :, None, :, None] * _EIGVECS[None, :, None, :, None, :]
).reshape(9, 4, 4)
SECTOR_KETS.setflags(write=False)


_EYE2 = np.eye(2, dtype=np.complex128)
# The operators of the linear inversion, in the order their terms are summed:
# single-side terms axis by axis (left, then right), then the nine correlators.
PAULI_BASIS = np.array(
    [op for axis in AXES for op in (np.kron(PAULI[axis], _EYE2), np.kron(_EYE2, PAULI[axis]))]
    + [np.kron(PAULI[left], PAULI[right]) for left in AXES for right in AXES]
)
PAULI_BASIS.setflags(write=False)


def setting_probabilities(matrices: np.ndarray) -> np.ndarray:
    """Outcome probabilities of all nine settings for a (..., 4, 4) stack, as (..., 9, 4).

    Settings run row-major over AXES (XX, XY, ..., ZZ), sectors (++, +-, -+, --).
    """
    weights = np.empty((*matrices.shape[:-2], 9, 4))
    stack = matrices[..., None, :, :]
    # one setting at a time: the products of all nine at once held 2.3 kB per row
    for setting, kets in enumerate(SECTOR_KETS[..., None]):
        weights[..., setting, :] = (kets.conj().swapaxes(-1, -2) @ (stack @ kets)).real[..., 0, 0]
    probs = np.maximum(weights, 0.0, out=weights)
    return probs / probs.sum(axis=-1, keepdims=True)


def simulate_tomography(probs: np.ndarray, shots_per_setting: int, rngs) -> np.ndarray:
    """Multinomial tallies of an (N, 9, 4) stack of setting probabilities, as (N, 9, 4) floats.

    State i draws from the i-th Generator of ``rngs``, one multinomial call
    over its nine settings; ``shots_per_setting`` follows ``check_shots``.
    """
    check_shots(shots_per_setting)
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 3 or probs.shape[1:] != (9, 4):
        raise ValueError(f"setting probabilities must have shape (N, 9, 4), got {probs.shape}")
    tables = np.empty(probs.shape, dtype=np.float64)
    for table, p, rng in zip(tables, probs, rngs, strict=True):
        table[:] = rng.multinomial(shots_per_setting, p)
    return tables


def _project_physical(matrices: np.ndarray) -> np.ndarray:
    """Nearest PSD unit-trace matrices in Frobenius norm, over an (N, 4, 4) stack.

    The nearest such matrix shares the eigenvectors of the Hermitian part;
    only the eigenvalues move, onto the probability simplex: each row is
    shifted by a common threshold and clipped at zero so the kept mass
    renormalises to exactly 1.  ``eigh`` returns ascending rows, so their
    reverse is the descending order the threshold search needs, and the
    last kept rank is the last True of each row.  Returns the validated stack.
    """
    herm = matrices.conj().swapaxes(-1, -2)
    herm += matrices  # the Hermitian part formed in one array
    herm /= 2.0
    vals, vecs = np.linalg.eigh(herm)
    del herm
    ordered = vals[:, ::-1]
    cumulative = np.cumsum(ordered, axis=1) - 1.0
    ranks = np.arange(1.0, 5.0)
    keep = ordered - cumulative / ranks > 0.0
    if not keep.any(axis=1).all():
        raise ValueError("reconstruction collapsed to the zero matrix")
    last = 3 - np.argmax(keep[:, ::-1], axis=1)
    threshold = cumulative[np.arange(len(vals)), last] / ranks[last]
    vals = np.clip(vals - threshold[:, None], 0.0, None)
    scaled = vecs * vals[:, None, :]
    projected = scaled @ np.conj(vecs, out=vecs).swapaxes(-1, -2)
    del scaled, vecs
    return validate_densities(projected)


def reconstruct(tables: np.ndarray) -> np.ndarray:
    """Linear inversion of (N, 9, 4) outcome weights over the Pauli basis, then projection.

    Weights are counts for sampled data or exact probabilities, in the
    layout of :func:`setting_probabilities`.  Correlators come straight from
    each setting; a single-side term is the mean of its marginal over the
    three partner axes.  Exact on infinite-shot data; on sampled data the
    inversion may leave the PSD cone, which the final projection repairs.
    Returns the (N, 4, 4) stack of density matrices, validated as one
    :func:`validate_densities` call.
    """
    tables = np.asarray(tables, dtype=np.float64)
    if tables.ndim != 3 or tables.shape[1:] != (9, 4):
        raise ValueError(f"outcome weights must have shape (N, 9, 4), got {tables.shape}")
    if not np.all(np.isfinite(tables)):
        raise ValueError("outcome weights must be finite")
    if np.any(tables < 0.0):
        raise ValueError("outcome weights must be nonnegative")
    totals = tables.sum(axis=-1, keepdims=True)
    if np.any(totals <= 0.0):
        _, setting, _ = np.argwhere(totals <= 0.0)[0]
        raise ValueError(f"setting {AXES[setting // 3]}{AXES[setting % 3]} has zero total weight")
    p = tables / totals
    p0, p1, p2, p3 = np.moveaxis(p, -1, 0)
    left = (p0 + p1 - p2 - p3).reshape(-1, 3, 3).mean(axis=2)
    right = (p0 + p2 - p1 - p3).reshape(-1, 3, 3).mean(axis=1)
    corr = p0 - p1 - p2 + p3
    coeffs = np.concatenate([np.stack([left, right], axis=2).reshape(-1, 6), corr], axis=1)
    del p, p0, p1, p2, p3, left, right, corr
    acc = np.tile(np.eye(4, dtype=np.complex128), (len(coeffs), 1, 1))
    term = np.empty_like(acc)
    for c, op in zip(coeffs.T, PAULI_BASIS):
        np.multiply(c[:, None, None], op, out=term)
        acc += term
    del coeffs, term
    acc /= 4.0
    return _project_physical(acc)


@dataclass(frozen=True)
class ExtractedParams:
    """Preparation parameters read off a stack of reconstructed matrices, one per row."""

    phi: np.ndarray
    beta: np.ndarray
    fidelity_to_ideal: np.ndarray
    low_coherence: int  # rows whose coherence fell below 1e-6 and so read phi = 0
    kets: np.ndarray  # (N, 4): the ideal state of each row's (beta, phi), as fit_noise takes them


def extract_params(rho_hats: np.ndarray) -> ExtractedParams:
    """Read (phi, beta) off each one-per-region block of an (N, 4, 4) stack and score the match.

    beta comes from the two populations, phi from the argument of the
    coherence between them; below 1e-6 coherence phi reads 0 and the row
    counts in low_coherence.  The read-off stays scalar per row and the kets
    take ``lr_ket_blocks``'s scalar trig, so each value has a one-state read's bits.
    """
    rho_hats = np.asarray(rho_hats)
    if rho_hats.ndim != 3 or rho_hats.shape[1:] != (4, 4):
        raise ValueError(f"extract_params takes an (N, 4, 4) stack, got shape {rho_hats.shape}")
    n, low_coherence = len(rho_hats), 0
    beta, phi, kets = np.empty(n), np.empty(n), np.empty((n, 4), dtype=np.complex128)
    for block in row_blocks(n):  # per-row Python objects live for one block
        rhos, betas, phis = rho_hats[block], [], []
        # the populations of |L-up R-down> and |L-down R-up>, and the coherence carrying exp(+i phi)
        columns = zip(rhos[:, 1, 1].real.tolist(), rhos[:, 2, 2].real.tolist(), rhos[:, 2, 1].tolist())
        for pop_ud, pop_du, coherence in columns:
            pop_ud, pop_du = max(pop_ud, 0.0), max(pop_du, 0.0)
            if not pop_ud + pop_du > 1e-6:  # a NaN fails this test
                raise ExtractionError("one-per-region sector is empty")
            betas.append(math.atan2(math.sqrt(pop_du), math.sqrt(pop_ud)))
            low = abs(coherence) < 1e-6
            low_coherence += low
            phis.append(0.0 if low else canonical_phase(cmath.phase(coherence)))
        beta[block], phi[block] = betas, phis
        kets[block] = lr_ket_blocks([(b, [cmath.exp(1j * p)]) for b, p in zip(betas, phis)])
    fidelity = fidelity_pure(rho_hats, kets)
    return ExtractedParams(phi=phi, beta=beta, fidelity_to_ideal=fidelity, low_coherence=low_coherence, kets=kets)
