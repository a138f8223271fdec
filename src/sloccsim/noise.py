"""Convex error model: the ideal state with probability F, spoiled otherwise.

The spoiled part splits between uniform white noise over the four coincidence
basis states and a dephased mixture of the two populated ones.  Both pieces
rotate into matrices with balanced diagonals, so they contribute nothing to
the z-basis correlation and a single visibility factor rescales every
expectation value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import check_unit_kets

WHITE_NOISE = np.eye(4, dtype=np.complex128) / 4.0
WHITE_NOISE.setflags(write=False)

DEPHASED = np.diag([0.0, 0.5, 0.5, 0.0]).astype(np.complex128)
DEPHASED.setflags(write=False)

# Fitted visibility within this distance of 1 leaves the noise split
# unconstrained; the default split is reported instead.
_VIS_SATURATED = 1e-9


@dataclass(frozen=True)
class NoiseModel:
    """visibility weights the ideal state; white/dephasing split the rest."""

    visibility: float = 0.977
    white_weight: float = 0.5
    dephasing_weight: float = 0.5

    def __post_init__(self) -> None:
        for name in ("visibility", "white_weight", "dephasing_weight"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        if abs(self.white_weight + self.dephasing_weight - 1.0) > 1e-12:
            raise ValueError("white and dephasing weights must sum to 1")


def noise_floor(model: NoiseModel) -> np.ndarray:
    """The spoiled component: white/dephased convex mix (a raw 4x4 array)."""
    return model.white_weight * WHITE_NOISE + model.dephasing_weight * DEPHASED


def noisy_state(ideals: np.ndarray, model: NoiseModel) -> np.ndarray:
    """visibility * ideal + (1 - visibility) * noise floor, over a (..., 4, 4) stack."""
    return model.visibility * ideals + (1.0 - model.visibility) * noise_floor(model)


def least_squares(gram: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Exact minimiser of c^T gram c - 2 h^T c on the physical triangle's edges.

    ``gram`` and ``h`` are the normal equations of a linear least-squares
    problem in c = (c_vis, c_white), whose misfit is this quadratic plus a
    constant.  The triangle c_vis, c_white >= 0, c_vis + c_white <= 1 is the
    box F, a in [0, 1].  A convex quadratic whose free optimum lies outside
    it is smallest on its boundary, and on each edge the optimum is a 1-D
    minimiser clamped to the edge; the best of the three edges wins.  On the
    edge c_vis + c_white = 1, c_white is set to 1 - c_vis, so the white
    weight it implies is exactly 1.  perfbench counts calls of this name as
    fits that left the triangle.
    """
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    best_cost, best = np.inf, None
    for first, last in ((0, 2), (0, 1), (1, 2)):  # c_vis = 0, c_white = 0, sum = 1
        start, step = corners[first], corners[last] - corners[first]
        slope, curvature = float(step @ (gram @ start - h)), float(step @ gram @ step)
        t = min(max(-slope / curvature, 0.0), 1.0)
        cost = float(start @ gram @ start - 2.0 * h @ start) + t * (2.0 * slope + t * curvature)
        if cost < best_cost:
            best_cost, best = cost, start + t * step
            if first == 1:
                best[1] = 1.0 - best[0]
    return best


def check_state_count(n: int) -> None:
    """The noise fit's rule: it needs at least two states."""
    if n < 2:
        raise ValueError(f"the noise fit needs at least two states, got {n}")


def fit_noise(targets: np.ndarray, kets: np.ndarray) -> NoiseModel:
    """Fit (visibility, white_weight) to reconstructed states by least squares.

    ``targets`` is an (N, 4, 4) stack of density matrices, such as
    ``reconstruct`` returns, and ``kets[i]`` the ideal unit ket that
    ``targets[i]`` is matched against, such as ``extract_params`` returns.
    The model visibility * |k><k| + (1 - visibility) * floor is matched in
    Frobenius norm.  It is linear in (c_vis, c_white) = (F, (1 - F) * a):
    target - DEPHASED = c_vis a + c_white b with a = |k><k| - DEPHASED per
    state and b = WHITE_NOISE - DEPHASED.  With <A, B> = Re tr(A^dag B)
    summed over the states, the normal equations G c = h have
    G = [[<a, a>, <a, b>], [<a, b>, <b, b>]] and h = [<a, r>, <b, r>] for
    r = target - DEPHASED.  Both floors are diagonal, so G and h need only
    each state's diagonal and its <k|target|k>; the 2x2 system is solved in
    closed form.  When that optimum leaves the physical triangle,
    ``least_squares`` finds the exact bounded optimum.  G is never singular:
    ||a||^2 >= 1/2 per unit ket and a is never parallel to b.
    """
    targets, kets = np.asarray(targets), np.asarray(kets)
    check_state_count(len(kets))
    if targets.shape != (len(kets), 4, 4):
        raise ValueError(
            f"targets must have shape ({len(kets)}, 4, 4), one per ket, got {targets.shape}"
        )
    if kets.shape != (len(kets), 4):
        raise ValueError(f"kets must have shape ({len(kets)}, 4), one per target, got {kets.shape}")
    finite = np.isfinite(targets).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"targets[{int(np.argmin(finite))}] is not finite")
    pops = kets.real**2 + kets.imag**2
    norm_sq = pops.sum(axis=1)
    check_unit_kets(norm_sq)
    pops /= norm_sq[:, None]  # the diagonal of P = |k><k|, normalised as ket_to_density does
    dephased, spread = DEPHASED.diagonal().real, (WHITE_NOISE - DEPHASED).diagonal().real  # b is diagonal
    target_pops = targets.diagonal(axis1=1, axis2=2).real - dephased  # the diagonal of r
    overlaps = (kets.conj()[:, None, :] @ (targets @ kets[:, :, None]))[:, 0, 0].real / norm_sq
    # <a, a> = ||P||^2 - 2 <P, DEPHASED> + ||DEPHASED||^2,
    # <a, r> = <P, target> - <P, DEPHASED> - <DEPHASED, r>
    aa = float(np.sum(pops.sum(axis=1) ** 2 - 2.0 * (pops @ dephased)) + len(kets) * (dephased @ dephased))
    ar = float(np.sum(overlaps - pops @ dephased - target_pops @ dephased))
    ab = float(np.sum((pops - dephased) @ spread))
    bb, br = float(len(kets) * (spread @ spread)), float(np.sum(target_pops @ spread))
    det = aa * bb - ab * ab
    c_vis, c_white = (bb * ar - ab * br) / det, (aa * br - ab * ar) / det
    slack = 1e-12
    if not (-slack <= c_vis <= 1.0 + slack and -slack <= c_white <= 1.0 - c_vis + slack):
        gram, h = np.array([[aa, ab], [ab, bb]]), np.array([ar, br])
        c_vis, c_white = (float(c) for c in least_squares(gram, h))

    visibility = min(max(c_vis, 0.0), 1.0)
    remainder = 1.0 - visibility
    if remainder <= _VIS_SATURATED:
        white = 0.5
    else:
        white = min(max(c_white / remainder, 0.0), 1.0)
    return NoiseModel(
        visibility=visibility, white_weight=white, dephasing_weight=1.0 - white
    )
