"""Nine-setting two-qubit state tomography with linear inversion.

Per setting the two pseudospins are measured along a pair of Pauli axes and
events are sorted into the four joint eigenvalue sectors.  Correlators feed
the reconstruction directly; single-side terms come from marginals averaged
over the partner axis, which keeps the inversion exact on infinite-shot
data.  Eigenvalue clipping plus trace renormalisation restores physicality
before any parameter is read off.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ExtractionError
from .slocc import PreparationSettings, prepare_lr
from .states import DensityMatrix4, canonical_phase, fidelity_pure

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
    kets = SECTOR_KETS[..., None]
    weights = (kets.conj().swapaxes(-1, -2) @ (matrices[..., None, None, :, :] @ kets)).real
    probs = np.maximum(weights[..., 0, 0], 0.0)
    return probs / probs.sum(axis=-1, keepdims=True)


def simulate_tomography(
    probs: np.ndarray, shots_per_setting: int, seed: int | np.random.Generator
) -> np.ndarray:
    """Multinomial tallies of one state's (9, 4) setting probabilities, one RNG stream.

    ``seed`` is a seed for ``np.random.default_rng`` or a Generator to draw
    from, which is used as it stands.
    """
    if shots_per_setting < 1:
        raise ValueError("shots_per_setting must be at least 1")
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots_per_setting, probs).astype(np.float64)


def _simplex_projection(values: np.ndarray) -> np.ndarray:
    """Nearest point on the probability simplex in Euclidean norm.

    Shift all entries by a common threshold and clip at zero so the kept
    mass renormalises to exactly 1.
    """
    ordered = np.sort(values)[::-1]
    cumulative = np.cumsum(ordered) - 1.0
    ranks = np.arange(1, values.size + 1)
    keep = ordered - cumulative / ranks > 0.0
    if not np.any(keep):
        raise ValueError("reconstruction collapsed to the zero matrix")
    threshold = cumulative[keep][-1] / float(ranks[keep][-1])
    return np.clip(values - threshold, 0.0, None)


def _project_physical(matrix: np.ndarray) -> DensityMatrix4:
    """Nearest PSD unit-trace matrix in Frobenius norm.

    The nearest such matrix shares the eigenvectors of the Hermitian part;
    only the eigenvalues move, onto the probability simplex.
    """
    herm = (matrix + matrix.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(herm)
    vals = _simplex_projection(vals)
    return DensityMatrix4((vecs * vals) @ vecs.conj().T)


def reconstruct(tables: np.ndarray) -> list[DensityMatrix4]:
    """Linear inversion of (N, 9, 4) outcome weights over the Pauli basis, then projection.

    Weights are counts for sampled data or exact probabilities, in the
    layout of :func:`setting_probabilities`.  Correlators come straight from
    each setting; a single-side term is the mean of its marginal over the
    three partner axes.  Exact on infinite-shot data; on sampled data the
    inversion may leave the PSD cone, which the final projection repairs.
    """
    tables = np.asarray(tables, dtype=np.float64)
    if tables.ndim != 3 or tables.shape[1:] != (9, 4):
        raise ValueError(f"outcome weights must have shape (N, 9, 4), got {tables.shape}")
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
    acc = np.tile(np.eye(4, dtype=np.complex128), (len(p), 1, 1))
    for c, op in zip(coeffs.T, PAULI_BASIS):
        acc += c[:, None, None] * op
    return [_project_physical(m) for m in acc / 4.0]


@dataclass(frozen=True)
class ExtractedParams:
    """Preparation parameters read off a reconstructed matrix."""

    phi: float
    beta: float
    fidelity_to_ideal: float
    low_coherence: bool = False


def extract_params(rho_hat: DensityMatrix4) -> ExtractedParams:
    """Read (phi, beta) off the one-per-region block and score the match.

    beta comes from the two populations, phi from the argument of the
    coherence between them.  Below 1e-6 coherence phi defaults to 0 and the
    low_coherence flag marks the value unreliable.
    """
    m = rho_hat.matrix
    pop_ud = max(float(m[1, 1].real), 0.0)
    pop_du = max(float(m[2, 2].real), 0.0)
    if pop_ud + pop_du <= 1e-6:
        raise ExtractionError("one-per-region sector is empty")
    beta = math.atan2(math.sqrt(pop_du), math.sqrt(pop_ud))
    coherence = complex(m[2, 1])  # carries exp(+i phi)
    low_coherence = abs(coherence) < 1e-6
    phi = 0.0 if low_coherence else canonical_phase(cmath.phase(coherence))
    ideal = prepare_lr(PreparationSettings(beta, phi))
    return ExtractedParams(
        phi=phi,
        beta=beta,
        fidelity_to_ideal=fidelity_pure(rho_hat, ideal),
        low_coherence=low_coherence,
    )
