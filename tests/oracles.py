"""Hand-rolled reference computations, kept independent of the library paths.

The library computes detection amplitudes through per-particle overlaps; the
oracle here builds the explicit 16-dimensional labelled two-particle product
space and takes the bracket directly.  Rotation and expectation oracles use
plain kron/matmul so they share no code with the shipped operators, and the
plate phase is recomputed through the explicit refraction angle.  The
multinomial bootstrap is the four-channel redraw that the binomial one
replaced; the two agree in distribution, not in bits.  The per-row draw
chain is what the stacked ``sample_counts`` replaced; it must agree bit for
bit, generator states included.  The tomography references are the
per-setting kron loop and the dict-accumulating inversion that the stacked
library code replaced; they must agree bit for bit.
The row seeds and generator states come from numpy's own SeedSequence and
default_rng, one object per row, which the vectorised seeding must match.
The physical projection is the per-state eigh and simplex loop that the
stacked projection replaced, the parameter read-off and its fidelity are
the per-state ``extract_params`` and ``fidelity_pure`` that the stacked
ones replaced, and the CSV cell rule is the per-cell ``format_cell`` that
the per-header templates replaced; each must agree bit for bit.  So must the exact phase bootstrap, kept here in the form that
allocated a new array at every step, before its passes ran in place, and
the phase and weight estimators that read one tally row per call, before
they read the whole stack (the phase one summing the lattice rows in padded
blocks).  The noise fit is the stacked (32 N, 2) design solved by
``np.linalg.lstsq``, which the closed-form 2x2 normal equations replaced;
the two agree to rounding, not in bits.  The last section holds small helpers that only tests use, several
of them over the reference model in ``physics``: the basis index of
``physics.Pseudospin`` labels, ket normalisation (which raises
``physics.DegenerateStateError``), the comparison of kets up to their
global phase, the single-spin rotation, the conjugate
``physics.StatisticsParameter``, the visibility scaling law checked through
``physics.expectation_zz``, and a tally row that carries a given
correlation.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from sloccsim import (
    ExtractionError,
    DensityMatrix4,
    NoiseModel,
    PlateGeometry,
    PreparationSettings,
    ket_to_density,
    noisy_state,
    prepare_lr,
    rotate_density,
)
from sloccsim.measurement import (
    MAX_SPAN,
    ROTATION_PAIR,
    WINDOW_SIGMAS,
    _same_and_total,
    _zz_spread,
    correlation_scale,
)
from sloccsim.mixture import cosine_contrast
from sloccsim.noise import DEPHASED, WHITE_NOISE
from sloccsim.states import ATOL, NORM_ATOL, PSD_ATOL, canonical_phase

from physics import DegenerateStateError, Pseudospin, StatisticsParameter, expectation_zz

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


# the single-spin pi/4 mixing that ROTATION_PAIR applies to both pseudospins
ROTATION_SINGLE = np.array([[1.0, -1.0], [1.0, 1.0]], dtype=np.complex128) / math.sqrt(2.0)


def rotation_matrix_by_kron() -> np.ndarray:
    """The two-spin rotation built from the single-spin matrix by kron."""
    return np.kron(ROTATION_SINGLE, ROTATION_SINGLE)


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


def bootstrap_zz_multinomial(counts, n_boot: int, seed: int) -> np.ndarray:
    """Correlation resamples of one tally row from multinomial redraws of all four channels."""
    total = sum(counts)
    empirical = np.array(counts, dtype=np.float64) / total
    draws = np.random.default_rng(seed).multinomial(total, empirical, size=n_boot)
    return (draws[:, 0] + draws[:, 3] - draws[:, 1] - draws[:, 2]) / total


def phase_spread_oracle(same: int, total: int, scale: float) -> float:
    """Exact bootstrap standard deviation of arccos(clip(zz* / scale, -1, 1)).

    zz* = (2 k - total) / total with k ~ Bin(total, q); the sum runs over
    the lattice, or over the fixed normal nodes for a wide window.
    """
    other = total - same
    if same == 0 or other == 0:
        return 0.0
    zz0 = (same - other) / total  # exact integers, one rounding
    half = math.ceil(WINDOW_SIGMAS * math.sqrt(same * other / total))
    if 2 * half > MAX_SPAN:
        nodes = np.linspace(-WINDOW_SIGMAS, WINDOW_SIGMAS, MAX_SPAN + 1)
        weights = np.exp(-0.5 * nodes**2)
        weights /= weights.sum()
        zz = zz0 + _zz_spread(same, total) * nodes
    else:
        # k = same + j; pmf(k + 1) / pmf(k) = (other - j) / (same + j + 1) * same / other
        j = np.arange(-min(half, same), min(half, other) + 1, dtype=np.float64)
        steps = np.log((other - j[:-1]) / (same + 1.0 + j[:-1])) + math.log(same / other)
        log_pmf = np.concatenate(([0.0], np.cumsum(steps)))
        weights = np.exp(log_pmf - log_pmf.max())
        weights /= weights.sum()
        zz = zz0 + (2.0 / total) * j
    ratio = zz / scale
    if ratio[0] >= 1.0 or ratio[-1] <= -1.0:
        return 0.0  # every resample clamps to the same end
    phi = np.arccos(np.clip(ratio, -1.0, 1.0))
    dev = phi - weights @ phi
    return math.sqrt(weights @ (dev * dev))


class PhaseRowEstimate(NamedTuple):
    """One row's exchange-phase estimate, as the per-row estimator returned it."""

    phi_hat: float
    sigma: float
    zz_hat: float
    zz_sigma: float
    clamped: bool  # the arccos argument fell outside [-1, 1] and was clipped


def estimate_phase_oracle(counts, beta: float, visibility: float) -> PhaseRowEstimate:
    """Invert zz = visibility * sin(2 beta) * cos(phi) for phi in [0, pi], one tally row per call."""
    scale = correlation_scale(beta, visibility, "phase")
    same, total = _same_and_total(counts)
    zz_hat = (same - (total - same)) / total
    ratio = zz_hat / scale
    return PhaseRowEstimate(
        phi_hat=math.acos(min(1.0, max(-1.0, ratio))),
        sigma=phase_spread_oracle(same, total, scale),
        zz_hat=zz_hat,
        zz_sigma=_zz_spread(same, total),
        clamped=abs(ratio) > 1.0,
    )


class MixtureRowEstimate(NamedTuple):
    """One row's mixing-weight estimate, as the per-row estimator returned it."""

    p_hat: float  # clamped into [0, 1]
    p_raw: float
    sigma: float
    zz_hat: float


def estimate_p_oracle(counts, phi1: float, phi2: float, beta: float, visibility: float) -> MixtureRowEstimate:
    """Invert the linear weight relation for one tally row (n13, n14, n23, n24)."""
    contrast = cosine_contrast(phi1, phi2)
    scale = correlation_scale(beta, visibility, "weight")
    same, total = _same_and_total(counts)
    zz_hat = (same - (total - same)) / total
    p_raw = (zz_hat / scale - math.cos(phi2)) / contrast
    return MixtureRowEstimate(
        p_hat=min(max(p_raw, 0.0), 1.0),
        p_raw=p_raw,
        sigma=_zz_spread(same, total) / abs(scale * contrast),
        zz_hat=zz_hat,
    )


def sample_counts_oracle(probs, total: int, rng: np.random.Generator, mode: str) -> list[int]:
    """One row's tallies, drawn by the per-row chain the stacked sampler replaced.

    The four probabilities are checked as plain floats, renormalised as a
    row (``p / p.sum()``) and drawn with one multinomial call or one scalar
    Poisson draw per channel; the tallies come back as Python ints.
    """
    vals = [float(v) for v in probs]
    if not all(0.0 <= v <= 1.0 for v in vals):
        raise ValueError("outcome probabilities must lie in [0, 1]")
    if abs(sum(vals) - 1.0) > ATOL:
        raise ValueError("outcome probabilities must sum to 1")
    p = np.array(vals)
    p = p / p.sum()
    if mode == "multinomial":
        draws = rng.multinomial(total, p)
    else:
        draws = [rng.poisson(total * v) for v in p.tolist()]
    return [int(v) for v in draws]


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
    phi = phi % (2.0 * math.pi)
    if phi == 2.0 * math.pi:  # a tiny negative phase rounds up to 2*pi; it means 0
        phi = 0.0
    amps = np.array(
        [0.0, math.cos(beta), cmath.exp(1j * phi) * math.sin(beta), 0.0],
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


def row_seeds_oracle(seed: int, index: int, count: int) -> list[int]:
    """Row ``index``'s seeds straight from numpy's SeedSequence."""
    sequence = np.random.SeedSequence([seed, index])
    return [int(v) for v in sequence.generate_state(count, dtype=np.uint64)]


def row_generator_oracle(seed: int, index: int) -> np.random.Generator:
    """A fresh Generator on row ``index``'s counting stream."""
    return np.random.default_rng(row_seeds_oracle(seed, index, 1)[0])


def simplex_projection_oracle(values: np.ndarray) -> np.ndarray:
    """Nearest point on the probability simplex to one vector, by sort and scan."""
    ordered = np.sort(values)[::-1]
    cumulative = np.cumsum(ordered) - 1.0
    ranks = np.arange(1, values.size + 1)
    keep = ordered - cumulative / ranks > 0.0
    if not np.any(keep):
        raise ValueError("reconstruction collapsed to the zero matrix")
    threshold = cumulative[keep][-1] / float(ranks[keep][-1])
    return np.clip(values - threshold, 0.0, None)


def project_physical_oracle(matrix: np.ndarray) -> np.ndarray:
    """Nearest density matrix to one 4x4 matrix: one eigh, one simplex projection, one check."""
    herm = (matrix + matrix.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(herm)
    vals = simplex_projection_oracle(vals)
    return DensityMatrix4((vecs * vals) @ vecs.conj().T).matrix


class ExtractedRow(NamedTuple):
    """Preparation parameters read off one reconstructed matrix, as the per-state extraction returned them."""

    phi: float
    beta: float
    fidelity_to_ideal: float
    low_coherence: bool = False


def fidelity_pure_oracle(rho: np.ndarray, target: np.ndarray) -> float:
    """<target|rho|target> for one (4, 4) density matrix and a (4,) ket, clipped into [0, 1] at the PSD tolerance.

    ``rho`` is a plain array, such as one row of ``reconstruct``'s stack.
    """
    if abs(float(np.linalg.norm(target)) - 1.0) > NORM_ATOL:
        raise ValueError("fidelity target must be a unit ket")
    value = float(np.real(np.vdot(target, rho @ target)))
    if value < -PSD_ATOL or value > 1.0 + PSD_ATOL:
        raise ValueError(f"fidelity {value!r} is outside [0, 1] beyond tolerance")
    return min(max(value, 0.0), 1.0)


def extract_params_oracle(rho_hat: np.ndarray) -> ExtractedRow:
    """Read (phi, beta) off one (4, 4) density matrix's one-per-region block and score the match.

    beta comes from the two populations, phi from the argument of the
    coherence between them.  Below 1e-6 coherence phi defaults to 0 and the
    low_coherence flag marks the value unreliable.  One state per call, such
    as a row of :func:`reconstruct`'s stack.
    """
    pop_ud = max(float(rho_hat[1, 1].real), 0.0)
    pop_du = max(float(rho_hat[2, 2].real), 0.0)
    if pop_ud + pop_du <= 1e-6:
        raise ExtractionError("one-per-region sector is empty")
    beta = math.atan2(math.sqrt(pop_du), math.sqrt(pop_ud))
    coherence = complex(rho_hat[2, 1])  # carries exp(+i phi)
    low_coherence = abs(coherence) < 1e-6
    phi = 0.0 if low_coherence else canonical_phase(cmath.phase(coherence))
    ideal = prepare_lr(PreparationSettings(beta, phi))
    return ExtractedRow(
        phi=phi,
        beta=beta,
        fidelity_to_ideal=fidelity_pure_oracle(rho_hat, ideal),
        low_coherence=low_coherence,
    )


def _edge_least_squares_oracle(design: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimiser of ||design @ c - rhs|| on the triangle's three edges, from the residual vectors."""
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    best_cost, best = np.inf, None
    for first, last in ((0, 2), (0, 1), (1, 2)):  # c_vis = 0, c_white = 0, sum = 1
        step = corners[last] - corners[first]
        along, offset = design @ step, design @ corners[first] - rhs
        t = min(max(-float(along @ offset) / float(along @ along), 0.0), 1.0)
        residual = offset + t * along
        if (cost := float(residual @ residual)) < best_cost:
            best_cost, best = cost, corners[first] + t * step
    return best


def fit_noise_oracle(targets: np.ndarray, kets: np.ndarray) -> NoiseModel:
    """(visibility, white_weight) from the stacked (32 N, 2) design and ``np.linalg.lstsq``.

    Rows run over the real, then the imaginary parts of every state's 16
    cells of ``|k><k| - DEPHASED`` (c_vis) and ``WHITE_NOISE - DEPHASED``
    (c_white) against ``target - DEPHASED``.  An optimum outside the
    physical triangle moves to the best point on its edges, found from the
    residual vectors themselves.
    """
    col_vis = (ket_to_density(np.asarray(kets)) - DEPHASED).reshape(-1, 16)
    col_white = np.broadcast_to((WHITE_NOISE - DEPHASED).ravel(), col_vis.shape)
    offset = (np.asarray(targets) - DEPHASED).reshape(-1, 16)
    design = np.stack(
        [np.concatenate([col_vis.real, col_vis.imag]), np.concatenate([col_white.real, col_white.imag])],
        axis=-1,
    ).reshape(-1, 2)
    rhs = np.concatenate([offset.real, offset.imag]).reshape(-1)
    (c_vis, c_white), *_ = np.linalg.lstsq(design, rhs, rcond=None)
    slack = 1e-12
    if not (-slack <= c_vis <= 1.0 + slack and -slack <= c_white <= 1.0 - c_vis + slack):
        c_vis, c_white = _edge_least_squares_oracle(design, rhs)
    visibility = min(max(float(c_vis), 0.0), 1.0)
    remainder = 1.0 - visibility
    white = 0.5 if remainder <= 1e-9 else min(max(float(c_white) / remainder, 0.0), 1.0)
    return NoiseModel(visibility=visibility, white_weight=white, dephasing_weight=1.0 - white)


def format_cell(value) -> str:
    """CSV cell: integers verbatim, floats with 12 significant digits."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def render_csv_oracle(header, rows) -> str:
    """CSV text with one ``format_cell`` call per cell."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(value) for value in row))
    return "\n".join(lines) + "\n"


def basis_index(left_spin: Pseudospin, right_spin: Pseudospin) -> int:
    """Index of |L left_spin, R right_spin> in the fixed basis order."""
    return 2 * int(left_spin) + int(right_spin)


def normalize(ket) -> np.ndarray:
    """A (4,) ket rescaled to unit norm, leaving direction and global phase alone."""
    ket = np.asarray(ket, dtype=np.complex128)
    n = float(np.linalg.norm(ket))
    if n <= 1e-15:
        raise DegenerateStateError("cannot normalise a zero-norm ket")
    return ket / n


def agrees_up_to_phase(a, b, atol: float = ATOL) -> bool:
    """Physical equality of unit kets, whose global phase carries no physics: |<a|b>| = 1 within atol."""
    return abs(abs(np.vdot(a, b)) - 1.0) <= atol


def apply_rotation(ket) -> np.ndarray:
    """Rotate both pseudospins of a (4,) ket by the fixed pi/4 mixing."""
    return ROTATION_PAIR @ np.asarray(ket, dtype=np.complex128)


def conjugated(eta: StatisticsParameter) -> StatisticsParameter:
    """Statistics parameter with the opposite phase sign."""
    return StatisticsParameter(-eta.phi)


def noisy_expectation_scaling(ideals: np.ndarray, model: NoiseModel) -> np.ndarray:
    """Correlations of the rotated noisy states, checked against the scaling law.

    The result must equal visibility times the ideal correlation because the
    noise floor is invisible to the rotated z-basis readout; a violation
    raises instead of returning silently.
    """
    noisy = expectation_zz(rotate_density(noisy_state(ideals, model)))
    reference = model.visibility * expectation_zz(rotate_density(ideals))
    if np.any(np.abs(noisy - reference) > 1e-12):
        raise RuntimeError("visibility scaling law violated; operators inconsistent")
    return noisy


# The largest power-of-two total the estimators' float arithmetic takes: it
# divides by float(total), and 2**1024 overflows.
LATTICE_TOTAL = 2**1023


def tally_with_zz(zz: float, total: int = LATTICE_TOTAL) -> tuple[int, int, int, int]:
    """The row (same, total - same, 0, 0) whose zz = (2 same - total) / total lies nearest ``zz``.

    At the default total the lattice step is 2**-1022, so the row carries
    exactly every zz whose last bit is at least 2**-1022 (|zz| >= 2**-970).
    """
    same = round((1 + Fraction(zz)) * total / 2)
    return (same, total - same, 0, 0)
