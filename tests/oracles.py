"""Hand-rolled reference computations, kept independent of the library paths.

The library computes detection amplitudes through per-particle overlaps; the
oracle here builds the explicit 16-dimensional labelled two-particle product
space and takes the bracket directly.  Rotation and expectation oracles use
plain kron/matmul so they share no code with the shipped operators, and the
plate phase is recomputed through the explicit refraction angle.
"""

from __future__ import annotations

import math

import numpy as np

from sloccsim import PlateGeometry

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
