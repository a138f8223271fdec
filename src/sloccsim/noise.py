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

from .errors import AmbiguousFitError
from .states import ket_to_density

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


def least_squares(design: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Exact minimiser of ||design @ c - rhs|| on the physical triangle's edges.

    The triangle c_vis, c_white >= 0, c_vis + c_white <= 1 is the box F, a
    in [0, 1].  A convex quadratic whose free optimum lies outside it is
    smallest on its boundary, and on each edge the optimum is a 1-D
    projection clamped to the edge; the best of the three edges wins.
    perfbench counts calls of this name as fits that left the triangle.
    """
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


def fit_noise(targets: np.ndarray, kets: np.ndarray) -> NoiseModel:
    """Fit (visibility, white_weight) to reconstructed states by least squares.

    ``targets`` is an (N, 4, 4) stack of density matrices, such as
    ``reconstruct`` returns, and ``kets[i]`` the ideal unit ket that
    ``targets[i]`` is matched against, such as ``extract_params`` returns.
    The model visibility * |k><k| + (1 - visibility) * floor is matched in
    Frobenius norm.  The model is linear in (c_vis, c_white) =
    (F, (1 - F) * a), so the unconstrained optimum is solved directly; when
    it leaves the physical triangle, ``least_squares`` finds the exact
    bounded optimum.
    """
    kets = np.asarray(kets)
    if len(kets) < 2:
        raise ValueError("need at least two reconstructed states to fit noise")
    if np.shape(targets) != (len(kets), 4, 4):
        raise ValueError(
            f"targets must have shape ({len(kets)}, 4, 4), one per ket, got {np.shape(targets)}"
        )
    if kets.shape != (len(kets), 4):
        raise ValueError(f"kets must have shape ({len(kets)}, 4), one per target, got {kets.shape}")
    # Rows run over the real parts of every state's 16 cells, then the
    # imaginary parts; each half is written in place from one difference.
    design = np.empty((2, len(kets), 16, 2))  # (real, imag), state, cell, (c_vis, c_white)
    col_vis = ket_to_density(kets) - DEPHASED
    design[0, :, :, 0], design[1, :, :, 0] = col_vis.real.reshape(-1, 16), col_vis.imag.reshape(-1, 16)
    del col_vis
    col_white = (WHITE_NOISE - DEPHASED).ravel()
    design[0, :, :, 1], design[1, :, :, 1] = col_white.real, col_white.imag
    rhs = np.empty((2, len(kets), 16))
    offset = targets - DEPHASED
    rhs[0], rhs[1] = offset.real.reshape(-1, 16), offset.imag.reshape(-1, 16)
    del offset
    design, rhs = design.reshape(-1, 2), rhs.reshape(-1)

    if float(np.linalg.norm(design[:, 0])) <= 1e-12:
        raise AmbiguousFitError("objective is flat in the visibility parameter")

    coeffs, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    c_vis, c_white = float(coeffs[0]), float(coeffs[1])
    slack = 1e-12
    if not (-slack <= c_vis <= 1.0 + slack and -slack <= c_white <= 1.0 - c_vis + slack):
        c_vis, c_white = (float(c) for c in least_squares(design, rhs))

    visibility = min(max(c_vis, 0.0), 1.0)
    remainder = 1.0 - visibility
    if remainder <= _VIS_SATURATED:
        white = 0.5
    else:
        white = min(max(c_white / remainder, 0.0), 1.0)
    return NoiseModel(
        visibility=visibility, white_weight=white, dephasing_weight=1.0 - white
    )
