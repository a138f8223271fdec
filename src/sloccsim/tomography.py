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


@dataclass(frozen=True)
class PauliSetting:
    """One measurement setting: a Pauli axis per side."""

    left: str
    right: str

    def __post_init__(self) -> None:
        if self.left not in AXES or self.right not in AXES:
            raise ValueError(f"axes must be in {AXES}, got {self.left!r}, {self.right!r}")


def all_settings() -> tuple[PauliSetting, ...]:
    """The nine settings in fixed row-major order."""
    return tuple(PauliSetting(a, b) for a in AXES for b in AXES)


_EYE2 = np.eye(2, dtype=np.complex128)
# The operators of the linear inversion, in the order their terms are summed:
# single-side terms axis by axis (left, then right), then the nine correlators.
PAULI_BASIS = np.array(
    [op for axis in AXES for op in (np.kron(PAULI[axis], _EYE2), np.kron(_EYE2, PAULI[axis]))]
    + [np.kron(PAULI[left], PAULI[right]) for left in AXES for right in AXES]
)
PAULI_BASIS.setflags(write=False)


def sector_probabilities(matrices: np.ndarray) -> np.ndarray:
    """Outcome probabilities of all nine settings for a (..., 4, 4) stack, as (..., 9, 4)."""
    kets = SECTOR_KETS[..., None]
    weights = (kets.conj().swapaxes(-1, -2) @ (matrices[..., None, None, :, :] @ kets)).real
    probs = np.maximum(weights[..., 0, 0], 0.0)
    return probs / probs.sum(axis=-1, keepdims=True)


def setting_probabilities(rho: DensityMatrix4, setting: PauliSetting) -> np.ndarray:
    """Probabilities of the four joint outcomes, in (++, +-, -+, --) order."""
    index = 3 * AXES.index(setting.left) + AXES.index(setting.right)
    return sector_probabilities(rho.matrix)[index]


@dataclass(frozen=True)
class TomographyData:
    """Per-setting outcome weights in sector order (++, +-, -+, --).

    Weights are integer counts for sampled data; exact probabilities fit the
    same container for infinite-shot reconstructions.
    """

    counts: dict[PauliSetting, np.ndarray]

    def __post_init__(self) -> None:
        cleaned = {}
        for setting, values in self.counts.items():
            arr = np.array(values, dtype=np.float64).reshape(4)
            if np.any(arr < 0.0):
                raise ValueError("outcome weights must be nonnegative")
            if float(arr.sum()) <= 0.0:
                raise ValueError(f"setting {setting} has zero total weight")
            arr.setflags(write=False)
            cleaned[setting] = arr
        object.__setattr__(self, "counts", cleaned)

    def total(self, setting: PauliSetting) -> float:
        return float(self.counts[setting].sum())


def sample_sectors(probs: np.ndarray, shots_per_setting: int, seed: int) -> np.ndarray:
    """Multinomial tallies of one state's (9, 4) sector probabilities, one RNG stream."""
    if shots_per_setting < 1:
        raise ValueError("shots_per_setting must be at least 1")
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots_per_setting, probs).astype(np.float64)


def simulate_tomography(
    rho: DensityMatrix4, shots_per_setting: int, seed: int
) -> TomographyData:
    """Multinomial outcome tallies for all nine settings, one RNG stream."""
    counts = sample_sectors(sector_probabilities(rho.matrix), shots_per_setting, seed)
    return TomographyData(dict(zip(all_settings(), counts)))


def exact_tomography_data(rho: DensityMatrix4) -> TomographyData:
    """Infinite-shot data: exact outcome probabilities as weights."""
    return TomographyData(dict(zip(all_settings(), sector_probabilities(rho.matrix))))


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


def invert(tables: np.ndarray) -> list[DensityMatrix4]:
    """Linear inversion of (N, 9, 4) outcome weights over the Pauli basis, then projection.

    Correlators come straight from each setting; a single-side term is the
    mean of its marginal over the three partner axes.
    """
    p = tables / tables.sum(axis=-1, keepdims=True)
    p0, p1, p2, p3 = np.moveaxis(p, -1, 0)
    left = (p0 + p1 - p2 - p3).reshape(-1, 3, 3).mean(axis=2)
    right = (p0 + p2 - p1 - p3).reshape(-1, 3, 3).mean(axis=1)
    corr = p0 - p1 - p2 + p3
    coeffs = np.concatenate([np.stack([left, right], axis=2).reshape(-1, 6), corr], axis=1)
    acc = np.tile(np.eye(4, dtype=np.complex128), (len(p), 1, 1))
    for c, op in zip(coeffs.T, PAULI_BASIS):
        acc += c[:, None, None] * op
    return [_project_physical(m) for m in acc / 4.0]


def reconstruct(data: TomographyData) -> DensityMatrix4:
    """Linear inversion over the Pauli basis, then the physicality projection.

    Exact on infinite-shot data; on sampled data the inversion may leave the
    PSD cone, which the final projection repairs.
    """
    missing = [s for s in all_settings() if s not in data.counts]
    if missing:
        raise ValueError(f"missing settings: {missing}")
    return invert(np.stack([data.counts[s] for s in all_settings()])[None])[0]


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
