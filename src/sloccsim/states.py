"""Density matrices of the post-selected two-particle state, from its kets.

Conventions fixed once for the whole package:

* pseudospin up is horizontal polarization (H) and down is vertical (V);
  the correspondence is global and never remapped;
* a ket is a plain complex array with four components on its last axis;
  kets and 4x4 matrices use the basis order
  ``[L-up R-up, L-up R-down, L-down R-up, L-down R-down]``;
* phases are stored reduced into [0, 2*pi) by :func:`canonical_phase`.

The kets themselves come from the closed form in :mod:`.slocc`; this module
turns stacks of them into density matrices, validates density stacks and
scores fidelities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ATOL = 1e-12
PSD_ATOL = 1e-10
NORM_ATOL = 1e-9  # input normalisation guard; internally produced kets hold 1e-12

TWO_PI = 2.0 * math.pi


def check_phase(x: float) -> float:
    """The phase rule: x is finite.  Returns float(x), unreduced."""
    phi = float(x)
    if not math.isfinite(phi):
        raise ValueError(f"phase must be finite, got {x!r}")
    return phi


def stack_of(values, trailing: tuple[int, ...], noun: str, rows=...) -> np.ndarray:
    """The shape rule of a stack: ``values`` as an array whose last axes are ``trailing``.

    Before them, ``rows=...`` allows any axes, ``(..., 4, 4)``; ``None`` one axis, ``(N, 9, 4)``;
    an int n one axis of length n, ``(n, 4)``, which holds a pair's second stack to its first.
    """
    values = np.asarray(values)
    leading = values.ndim - len(trailing)  # not shape[-len(trailing):], which is the whole shape for ()
    fits = leading >= 0 if rows is ... else leading == 1 and rows in (None, values.shape[0])
    if not (fits and values.shape[leading:] == trailing):
        axes = ("..." if rows is ... else "N" if rows is None else rows, *trailing)
        raise ValueError(f"{noun} must have shape ({', '.join(map(str, axes))}), got {values.shape}")
    return values


def canonical_phase(x: float) -> float:
    """x reduced into [0, 2*pi), so that reducing twice equals reducing once.

    A bare ``x % TWO_PI`` rounds a tiny negative x up to exactly ``TWO_PI``,
    and turns an infinite or NaN x into NaN, which ``check_phase`` rejects first.
    """
    phi = check_phase(x) % TWO_PI
    return 0.0 if phi == TWO_PI else phi


@dataclass(frozen=True, eq=False)
class DensityMatrix4:
    """4x4 density matrix in the fixed basis, validated on construction.

    The one-matrix convenience over :func:`validate_densities`; the pipeline
    itself validates whole (N, 4, 4) stacks and builds none of these.
    Accepts Hermiticity (real and imaginary parts apart) and trace defects up
    to 1e-12 and eigenvalues down to -1e-10; anything else raises.  The
    eigenvalue bound is decided as :func:`validate_densities` decides it.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.complex128).reshape(4, 4)
        validate_densities(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _psd_screen(stack: np.ndarray) -> np.ndarray:
    """True where the unpivoted LDL^H of a matrix + (PSD_ATOL / 2) I has four pivots > 0 (a NaN fails).

    Such a matrix has no eigenvalue below -PSD_ATOL / 2, up to rounding near 1e-16, so it
    passes the ``eigvalsh`` rule too.  Like ``eigvalsh``, it reads the lower triangle.
    """
    with np.errstate(all="ignore"):
        a = stack + 0.5 * PSD_ATOL * np.eye(4)
        ok = a[:, 0, 0].real > 0.0
        for k in range(3):
            col = a[:, k + 1 :, k]
            a[:, k + 1 :, k + 1 :] -= col[:, :, None] * (col.conj() / a[:, k, k].real[:, None])[:, None, :]
            ok &= a[:, k + 1, k + 1].real > 0.0
    return ok


def validate_densities(matrices: np.ndarray) -> np.ndarray:
    """Return a (..., 4, 4) stack, as an array, if every matrix passes DensityMatrix4's checks.

    Only a stack that ``_psd_screen`` rejects runs ``eigvalsh``, which decides it.
    """
    matrices = stack_of(matrices, (4, 4), "density matrices")
    stack = matrices.reshape(-1, 4, 4)
    re, im = stack.real, stack.imag
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, and a NaN fails each test
        real_ok = np.abs(re - re.swapaxes(1, 2)) <= ATOL
        imag_ok = np.abs(im + im.swapaxes(1, 2)) <= ATOL
    if not (real_ok.all() and imag_ok.all()):
        raise ValueError("density matrix is not Hermitian")
    traces = stack.trace(axis1=1, axis2=2)
    bad = np.abs(traces - 1.0) > ATOL
    if np.any(bad):
        raise ValueError(f"density matrix trace is {complex(traces[bad][0])!r}, expected 1")
    if _psd_screen(stack).all():
        return matrices
    eigmin = np.linalg.eigvalsh(stack)[:, 0]
    bad = eigmin < -PSD_ATOL
    if np.any(bad):
        raise ValueError(f"density matrix has negative eigenvalue {float(eigmin[bad][0])!r}")
    return matrices


def check_unit_kets(norm_sq: np.ndarray) -> None:
    """The unit-ket rule, on the caller's own squared norms ||k||^2: each within 2 * NORM_ATOL of 1."""
    if not np.all(np.abs(norm_sq - 1.0) <= 2.0 * NORM_ATOL):  # a NaN fails this test
        raise ValueError("kets must have unit norm; rescale them to norm 1 first")


def ket_to_density(kets: np.ndarray) -> np.ndarray:
    """Rank-one projectors |k><k| of a (..., 4) stack of unit kets, as (..., 4, 4)."""
    kets = stack_of(kets, (4,), "kets")
    norm_sq = (kets.conj()[..., None, :] @ kets[..., :, None]).real
    check_unit_kets(norm_sq)
    return kets[..., :, None] * kets.conj()[..., None, :] / norm_sq


def fidelity_pure(rhos: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """<k|rho|k> of an (N, 4, 4) stack and its (N, 4) unit kets, clipped into [0, 1] at the PSD tolerance.

    ``rhos`` is a plain array, such as ``reconstruct``'s stack; returns the
    length-N float64 fidelities.
    """
    kets = stack_of(np.asarray(kets, dtype=np.complex128), (4,), "kets", rows=None)
    rhos = stack_of(rhos, (4, 4), "density matrices", rows=len(kets))
    check_unit_kets(np.linalg.norm(kets, axis=1) ** 2)
    values = (kets.conj()[:, None, :] @ (rhos @ kets[:, :, None]))[:, 0, 0].real
    inside = (values >= -PSD_ATOL) & (values <= 1.0 + PSD_ATOL)  # a NaN fails both comparisons
    if not inside.all():
        raise ValueError(f"fidelity {float(values[~inside][0])!r} is outside [0, 1] beyond tolerance")
    return np.clip(values, 0.0, 1.0)  # keeps a -0.0; np.maximum would turn it into 0.0
