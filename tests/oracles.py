"""Hand-rolled reference computations, kept independent of the library paths.

The library computes detection amplitudes through per-particle overlaps; the
oracle here builds the explicit 16-dimensional labelled two-particle product
space and takes the bracket directly.  Rotation and expectation oracles use
plain kron/matmul so they share no code with the shipped operators, and the
plate phase is recomputed through the explicit refraction angle.  The
tomography references are the per-setting kron loop and the dict-accumulating
inversion that the stacked library code replaced; they must agree bit for bit.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from sloccsim import PlateGeometry
from sloccsim.measurement import ROTATION_PAIR
from sloccsim.noise import DEPHASED, WHITE_NOISE

# labelled single-particle basis slots: (region, spin)
SLOTS = {("L", "up"): 0, ("L", "down"): 1, ("R", "up"): 2, ("R", "down"): 3}


def labelled_single(amp_l: complex, amp_r: complex, spin: str) -> np.ndarray:
    """One labelled particle spread over the regions with a definite spin."""
    vec = np.zeros(4, dtype=np.complex128)
    vec[SLOTS[("L", spin)]] = amp_l
    vec[SLOTS[("R", spin)]] = amp_r
    return vec


def port_vector(region: str, spin: str) -> np.ndarray:
    vec = np.zeros(4, dtype=np.complex128)
    vec[SLOTS[(region, spin)]] = 1.0
    return vec


def labelled_bracket(
    left_spin: str,
    right_spin: str,
    first: np.ndarray,
    second: np.ndarray,
    eta: complex,
) -> complex:
    """<L s1, R s2 | (|first>|second> + eta |second>|first>) in the product space."""
    state = np.kron(first, second) + eta * np.kron(second, first)
    bra = np.kron(port_vector("L", left_spin), port_vector("R", right_spin))
    return complex(np.vdot(bra, state))


def rotation_matrix_by_kron() -> np.ndarray:
    """The two-spin rotation built from the single-spin matrix by kron."""
    single = np.array([[1.0, -1.0], [1.0, 1.0]], dtype=np.complex128) / math.sqrt(2.0)
    return np.kron(single, single)


def rotate_ket_oracle(amps: np.ndarray) -> np.ndarray:
    """Direct matrix multiplication with the kron-built rotation."""
    return rotation_matrix_by_kron() @ np.asarray(amps, dtype=np.complex128)


def expectation_oracle(matrix: np.ndarray) -> float:
    """Tr[rho (sigma_z x sigma_z)] by explicit elementwise summation."""
    signs = (1.0, -1.0, -1.0, 1.0)
    return float(sum(signs[i] * matrix[i, i].real for i in range(4)))


def fidelity_oracle(matrix: np.ndarray, target: np.ndarray) -> float:
    """<t|rho|t> by explicit double loop."""
    total = 0.0 + 0.0j
    for i in range(4):
        for j in range(4):
            total += np.conj(target[i]) * matrix[i, j] * target[j]
    return float(total.real)


def random_unit_pair(rng: np.random.Generator) -> tuple[complex, complex]:
    """A normalised pair of complex amplitudes."""
    vec = rng.normal(size=2) + 1j * rng.normal(size=2)
    vec /= np.linalg.norm(vec)
    return complex(vec[0]), complex(vec[1])


def random_real_unit_pair(rng: np.random.Generator) -> tuple[float, float]:
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return math.cos(angle), math.sin(angle)


def phase_via_refraction(x: float, geom: PlateGeometry) -> float:
    """Unwrapped plate phase computed through the explicit refraction angle.

    Independent of the library's closed form: the tilt gives
    sin(incidence) = x/r, refraction scales it by the index ratio, and the
    phase follows from the secant of the internal angle.
    """
    if abs(x) >= geom.max_displacement:
        raise ValueError("displacement outside the refraction domain")
    sin_incident = x / geom.radius
    sin_refracted = geom.ambient_index * sin_incident / geom.index
    cos_refracted = math.sqrt(1.0 - sin_refracted * sin_refracted)
    return geom.phase_scale * (1.0 / cos_refracted - 1.0)


_SQRT_HALF = 1.0 / math.sqrt(2.0)
AXES = ("X", "Y", "Z")
PAULI = {
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
}
# eigenvectors for the +1 and -1 outcomes of each axis
EIGVECS = {
    "X": (
        np.array([_SQRT_HALF, _SQRT_HALF], dtype=np.complex128),
        np.array([_SQRT_HALF, -_SQRT_HALF], dtype=np.complex128),
    ),
    "Y": (
        np.array([_SQRT_HALF, 1.0j * _SQRT_HALF], dtype=np.complex128),
        np.array([_SQRT_HALF, -1.0j * _SQRT_HALF], dtype=np.complex128),
    ),
    "Z": (
        np.array([1.0, 0.0], dtype=np.complex128),
        np.array([0.0, 1.0], dtype=np.complex128),
    ),
}
# joint outcome sectors, ordered (++, +-, -+, --)
OUTCOME_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
SETTINGS = tuple((a, b) for a in AXES for b in AXES)


def setting_probabilities_oracle(matrix: np.ndarray, left: str, right: str) -> np.ndarray:
    """Sector probabilities of one setting, one kron-built ket at a time."""
    probs = np.empty(4)
    for k, (sl, sr) in enumerate(OUTCOME_SIGNS):
        vec = np.kron(EIGVECS[left][0 if sl > 0 else 1], EIGVECS[right][0 if sr > 0 else 1])
        probs[k] = max(float(np.real(np.vdot(vec, matrix @ vec))), 0.0)
    return probs / probs.sum()


def linear_inversion_oracle(table: np.ndarray) -> np.ndarray:
    """Unprojected linear inversion of (9, 4) outcome weights, term by term."""
    corr = {}
    left_marginals = {axis: [] for axis in AXES}
    right_marginals = {axis: [] for axis in AXES}
    for (left, right), weights in zip(SETTINGS, table):
        p = weights / weights.sum()
        corr[(left, right)] = float(
            sum(sl * sr * p[k] for k, (sl, sr) in enumerate(OUTCOME_SIGNS))
        )
        left_marginals[left].append(float(p[0] + p[1] - p[2] - p[3]))
        right_marginals[right].append(float(p[0] + p[2] - p[1] - p[3]))

    eye2 = np.eye(2, dtype=np.complex128)
    acc = np.eye(4, dtype=np.complex128)
    for axis in AXES:
        acc += float(np.mean(left_marginals[axis])) * np.kron(PAULI[axis], eye2)
        acc += float(np.mean(right_marginals[axis])) * np.kron(eye2, PAULI[axis])
    for left in AXES:
        for right in AXES:
            acc += corr[(left, right)] * np.kron(PAULI[left], PAULI[right])
    return acc / 4.0


def pure_density_oracle(beta: float, phi: float) -> np.ndarray:
    """|psi><psi| of the prepared state, with PreparationSettings' clamp and phase reduction."""
    beta = min(beta, math.pi / 2)
    amps = np.array(
        [0.0, math.cos(beta), cmath.exp(1j * (phi % (2.0 * math.pi))) * math.sin(beta), 0.0],
        dtype=np.complex128,
    )
    return np.outer(amps, amps.conj()) / float(np.vdot(amps, amps).real)


def noisy_chain_oracle(beta: float, phi: float, visibility: float, white: float):
    """One point of the sweep pipeline, step by step on 4x4 arrays.

    Returns the noisy state and its rotated coincidence probabilities.
    """
    floor = white * WHITE_NOISE + (1.0 - white) * DEPHASED
    noisy = visibility * pure_density_oracle(beta, phi) + (1.0 - visibility) * floor
    diag = np.clip((ROTATION_PAIR @ noisy @ ROTATION_PAIR.conj().T).diagonal().real, 0.0, None)
    return noisy, diag / float(diag.sum())
