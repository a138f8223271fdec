"""Checks on the CSV a sloccsim subcommand wrote.

Every check holds for any RNG stream: exact identities are tested only on
deterministic columns, and sampled columns are tested against their own
error bars, so a change of bootstrap or sampling stream does not trip them.
The headers are the benchmark's own copy of the documented columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PHASE_HEADER = (
    "beta_deg,phi_rad,cos_phi,zz_ideal,zz_noisy_expected,zz_sampled,zz_sampled_err,phi_hat,phi_err"
)
MIXTURE_HEADER = "p,phi1_rad,phi2_rad,zz_ideal,zz_sampled,p_hat_raw,p_hat,p_err"
PLATE_HEADER = "x_mm,phi_unwrapped_rad,phi_wrapped_rad"
COUNTS_HEADER = "beta_deg,phi_rad,n13,n14,n23,n24,total"
TOMOGRAPHY_HEADER = ",".join(
    ["beta_deg", "phi_rad", "beta_hat_deg", "phi_hat_rad", "fidelity", "visibility_fit", "white_weight_fit"]
    + [f"rho_{part}_{i}{j}" for i in range(4) for j in range(4) for part in ("re", "im")]
)

# Sampled correlations must lie within this many bootstrap sigmas of the expected value.
ZZ_SIGMAS = 6.0
MIN_FIDELITY = 0.9
VISIBILITY_FIT_TOL = 0.02
EXACT_TOL = 1e-12  # identities on deterministic columns, printed with 12 digits
GRID_TOL = 1e-9  # grid coordinates echoed back in the CSV
RHO_TOL = 1e-10  # Hermiticity, trace and PSD of reconstructed states
PRINT_TOL = 1e-11  # a value in [0, pi] printed with 12 digits may round past an end


def _in_zero_pi(value: float) -> bool:
    return -PRINT_TOL <= value <= math.pi + PRINT_TOL

_MAX_PROBLEMS = 5


@dataclass(frozen=True)
class Expect:
    """What one subcommand run must produce, from the grid the benchmark configured.

    ``kind`` is phase, mixture, plate, counts or tomography.  Angles are in
    radians and displacements in meters, as the generated configs state them.
    """

    kind: str
    betas: tuple = ()
    phis: tuple = ()
    xs: tuple = ()
    ps: tuple = ()
    visibility: float = 0.977

    @property
    def rows(self) -> int:
        if self.kind == "mixture":
            return len(self.ps)
        if self.kind == "plate":
            return len(self.xs)
        return len(self.betas) * len(self.phis or self.xs)

    @property
    def header(self) -> str:
        return {
            "phase": PHASE_HEADER,
            "mixture": MIXTURE_HEADER,
            "plate": PLATE_HEADER,
            "counts": COUNTS_HEADER,
            "tomography": TOMOGRAPHY_HEADER,
        }[self.kind]


def _grid_point(expect: Expect, index: int) -> tuple[float, float | None]:
    """(beta, phi) of row ``index``; phi is None when phases come through the plate."""
    inner = len(expect.phis or expect.xs)
    beta = expect.betas[index // inner]
    return beta, (expect.phis[index % inner] if expect.phis else None)


def _check_grid(expect: Expect, index: int, beta_deg: float, phi: float) -> list[str]:
    beta, want_phi = _grid_point(expect, index)
    problems = []
    if abs(beta_deg - math.degrees(beta)) > GRID_TOL:
        problems.append(f"beta_deg {beta_deg!r} is not the configured {math.degrees(beta)!r}")
    if want_phi is None:
        if not _in_zero_pi(phi):
            problems.append(f"plate phase {phi!r} outside [0, pi]")
    elif abs(phi - want_phi) > GRID_TOL:
        problems.append(f"phi_rad {phi!r} is not the configured {want_phi!r}")
    return problems


def _check_phase_row(expect: Expect, index: int, row: list[float]) -> list[str]:
    beta_deg, phi, _cos, zz_ideal, zz_noisy, zz_sampled, zz_err, phi_hat, _phi_err = row
    problems = _check_grid(expect, index, beta_deg, phi)
    beta, want_phi = _grid_point(expect, index)
    if want_phi is not None:
        exact = math.sin(2.0 * beta) * math.cos(want_phi)
        if abs(zz_ideal - exact) > EXACT_TOL:
            problems.append(f"zz_ideal {zz_ideal!r} != sin(2 beta) cos(phi) = {exact!r}")
        if abs(zz_noisy - expect.visibility * exact) > EXACT_TOL:
            problems.append(f"zz_noisy_expected {zz_noisy!r} != V * zz_ideal")
    if not _in_zero_pi(phi_hat):
        problems.append(f"phi_hat {phi_hat!r} outside [0, pi]")
    if not abs(zz_sampled - zz_noisy) <= ZZ_SIGMAS * zz_err:
        problems.append(
            f"zz_sampled {zz_sampled!r} is more than {ZZ_SIGMAS} x {zz_err!r} from {zz_noisy!r}"
        )
    return problems


def _check_counts_row(expect: Expect, index: int, row: list[float]) -> list[str]:
    beta_deg, phi, n13, n14, n23, n24, total = row
    problems = _check_grid(expect, index, beta_deg, phi)
    if n13 + n14 + n23 + n24 != total:
        problems.append(f"channels sum to {n13 + n14 + n23 + n24!r}, total is {total!r}")
    if not total > 0:
        problems.append(f"total {total!r} is not positive")
    return problems


def _check_tomography_row(expect: Expect, index: int, row: list[float]) -> list[str]:
    beta_deg, phi, _beta_hat, _phi_hat, fidelity, visibility_fit, _white = row[:7]
    problems = _check_grid(expect, index, beta_deg, phi)
    parts = np.array(row[7:]).reshape(16, 2)
    rho = (parts[:, 0] + 1j * parts[:, 1]).reshape(4, 4)
    if np.max(np.abs(rho - rho.conj().T)) > RHO_TOL:
        problems.append("reconstructed rho is not Hermitian")
    if abs(np.trace(rho) - 1.0) > RHO_TOL:
        problems.append(f"reconstructed rho has trace {np.trace(rho)!r}")
    eigmin = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0])
    if eigmin < -RHO_TOL:
        problems.append(f"reconstructed rho has eigenvalue {eigmin!r}")
    if not fidelity >= MIN_FIDELITY:
        problems.append(f"fidelity {fidelity!r} below {MIN_FIDELITY}")
    if not abs(visibility_fit - expect.visibility) <= VISIBILITY_FIT_TOL:
        problems.append(f"visibility_fit {visibility_fit!r} not within {VISIBILITY_FIT_TOL} of {expect.visibility}")
    return problems


def _check_mixture_row(expect: Expect, index: int, row: list[float]) -> list[str]:
    p, _phi1, _phi2, _zz_ideal, _zz_sampled, p_raw, p_hat, _p_err = row
    problems = []
    if abs(p - expect.ps[index]) > GRID_TOL:
        problems.append(f"p {p!r} is not the configured {expect.ps[index]!r}")
    if abs(p_hat - min(max(p_raw, 0.0), 1.0)) > EXACT_TOL:
        problems.append(f"p_hat {p_hat!r} is not p_hat_raw {p_raw!r} clamped into [0, 1]")
    return problems


def _check_plate_row(expect: Expect, index: int, row: list[float]) -> list[str]:
    x_mm, _unwrapped, wrapped = row
    problems = []
    if abs(x_mm - expect.xs[index] * 1e3) > GRID_TOL:
        problems.append(f"x_mm {x_mm!r} is not the configured {expect.xs[index] * 1e3!r}")
    if not _in_zero_pi(wrapped):
        problems.append(f"wrapped phase {wrapped!r} outside [0, pi]")
    return problems


_ROW_CHECKS = {
    "phase": _check_phase_row,
    "counts": _check_counts_row,
    "tomography": _check_tomography_row,
    "mixture": _check_mixture_row,
    "plate": _check_plate_row,
}


def check_csv(text: str, expect: Expect) -> list[str]:
    """Problems found in one CSV output; an empty list means it passed."""
    lines = text.splitlines()
    if not lines or lines[0] != expect.header:
        return [f"header {lines[0] if lines else ''!r} is not {expect.header!r}"]
    body = lines[1:]
    if len(body) != expect.rows:
        return [f"{len(body)} rows, expected {expect.rows}"]
    width = expect.header.count(",") + 1
    problems = []
    for index, line in enumerate(body):
        cells = line.split(",")
        try:
            row = [float(cell) for cell in cells]
        except ValueError:
            row = []
        if len(row) != width or not all(math.isfinite(v) for v in row):
            problems.append(f"row {index + 1}: malformed {line!r}")
        else:
            problems += [f"row {index + 1}: {p}" for p in _ROW_CHECKS[expect.kind](expect, index, row)]
        if len(problems) >= _MAX_PROBLEMS:
            break
    return problems
