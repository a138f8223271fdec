"""Experiment drivers: resolved config in, CSV header plus rows out.

A scenario's states form one validated (N, 4, 4) stack.  Each row derives
its own RNG seeds from (run seed, row index) through a SeedSequence, so rows
never depend on evaluation order and identical configs reproduce identical files.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ResolvedConfig
from .measurement import (
    OutcomeProbs,
    estimate_phase,
    estimate_zz,
    outcome_probs,
    rotate_density,
    sample_counts,
)
from .mixture import MixtureSpec, estimate_p, mixed_state, mixture_expectation
from .noise import fit_noise, noisy_state
from .plate import phase_from_displacement
from .slocc import PreparationSettings, lr_kets
from .states import ket_to_density, validate_densities
from .tomography import extract_params, reconstruct, setting_probabilities, simulate_tomography


def point_seeds(seed: int, index: int, count: int = 2) -> list[int]:
    """Deterministic per-point seeds, independent of evaluation order."""
    sequence = np.random.SeedSequence([int(seed), int(index)])
    return [int(v) for v in sequence.generate_state(count, dtype=np.uint64)]


def _grid(cfg: ResolvedConfig):
    """The (beta, phi) rows of a grid scenario, beta outermost, and their noisy states."""
    if cfg.x_list is not None:
        phis = [phase_from_displacement(x, cfg.plate).wrapped for x in cfg.x_list]
    else:
        phis = cfg.phi_list
    grid = [(beta, phi) for beta in cfg.beta_list for phi in phis]
    kets = lr_kets([PreparationSettings(beta, phi) for beta, phi in grid])
    return grid, validate_densities(noisy_state(ket_to_density(kets), cfg.noise))


def _sample(cfg: ResolvedConfig, states: np.ndarray, describe=None):
    """Rotate and read out the whole stack, then yield each row's (counts, bootstrap seed).

    ``describe(index)`` names the rows of a sweep that estimates from its
    counts; there a row without a coincidence (Poisson can draw one) ends the run.
    """
    for index, probs in enumerate(outcome_probs(rotate_density(states))):
        count_seed, boot_seed = point_seeds(cfg.seed, index)
        counts = sample_counts(OutcomeProbs(*probs), cfg.shots, count_seed, mode=cfg.sampling)
        if describe is not None and counts.total < 1:
            raise ValueError(f"row {index} ({describe(index)}): cannot estimate from zero counts")
        yield counts, boot_seed


PHASE_SWEEP_HEADER = [
    "beta_deg",
    "phi_rad",
    "cos_phi",
    "zz_ideal",
    "zz_noisy_expected",
    "zz_sampled",
    "zz_sampled_err",
    "phi_hat",
    "phi_err",
]


def run_phase_sweep(cfg: ResolvedConfig):
    """Full pipeline per (beta, phi): prepare, add noise, rotate, count, invert.

    Also serves the beta-sweep scenario; the two differ only in which list
    the configuration varies.
    """
    grid, states = _grid(cfg)
    vis = cfg.noise.visibility

    def describe(index):
        beta, phi = grid[index]
        return f"beta {math.degrees(beta):.12g} deg, phi {phi:.12g} rad"

    rows = []
    for (beta, phi), (counts, boot_seed) in zip(grid, _sample(cfg, states, describe)):
        zz_ideal = math.sin(2.0 * beta) * math.cos(phi)
        zz_hat = estimate_zz(counts)
        est = estimate_phase(zz_hat, beta, vis, counts, cfg.bootstrap, boot_seed)
        rows.append(
            [
                math.degrees(beta),
                phi,
                math.cos(phi),
                zz_ideal,
                vis * zz_ideal,
                zz_hat,
                est.zz_sigma,
                est.phi_hat,
                est.sigma,
            ]
        )
    return PHASE_SWEEP_HEADER, rows


MIXTURE_HEADER = [
    "p",
    "phi1_rad",
    "phi2_rad",
    "zz_ideal",
    "zz_sampled",
    "p_hat_raw",
    "p_hat",
    "p_err",
]


def run_mixture_sweep(cfg: ResolvedConfig):
    """Sample each mixture on the weight grid and invert for the weight."""
    beta = cfg.beta_list[0]
    phi1, phi2 = cfg.phi_list
    vis = cfg.noise.visibility
    specs = [MixtureSpec(weight=p, phi1=phi1, phi2=phi2, beta=beta) for p in cfg.p_list]
    states = validate_densities(noisy_state(mixed_state(specs), cfg.noise))
    sampled = _sample(cfg, states, lambda i: f"p {cfg.p_list[i]:.12g}")
    rows = []
    for p, spec, (counts, boot_seed) in zip(cfg.p_list, specs, sampled):
        zz_hat = estimate_zz(counts)
        est = estimate_p(zz_hat, phi1, phi2, beta, vis, counts, cfg.bootstrap, boot_seed)
        rows.append(
            [
                p,
                spec.phi1,
                spec.phi2,
                mixture_expectation(spec),
                zz_hat,
                est.p_raw,
                est.p_hat,
                est.sigma,
            ]
        )
    return MIXTURE_HEADER, rows


PLATE_HEADER = ["x_mm", "phi_unwrapped_rad", "phi_wrapped_rad"]


def run_plate_calibration(cfg: ResolvedConfig):
    """Displacement to phase table for the configured plate geometry."""
    rows = []
    for x in cfg.x_list:
        result = phase_from_displacement(x, cfg.plate)
        rows.append([x * 1e3, result.unwrapped, result.wrapped])
    return PLATE_HEADER, rows


COUNTS_HEADER = ["beta_deg", "phi_rad", "n13", "n14", "n23", "n24", "total"]


def run_counts_demo(cfg: ResolvedConfig):
    """Raw coincidence tallies per (beta, phi)."""
    grid, states = _grid(cfg)
    rows = []
    for (beta, phi), (counts, _) in zip(grid, _sample(cfg, states)):
        rows.append(
            [
                math.degrees(beta),
                phi,
                counts.n13,
                counts.n14,
                counts.n23,
                counts.n24,
                counts.total,
            ]
        )
    return COUNTS_HEADER, rows


TOMOGRAPHY_HEADER = [
    "beta_deg",
    "phi_rad",
    "beta_hat_deg",
    "phi_hat_rad",
    "fidelity",
    "visibility_fit",
    "white_weight_fit",
] + [
    f"rho_{part}_{i}{j}" for i in range(4) for j in range(4) for part in ("re", "im")
]


def run_tomography_demo(cfg: ResolvedConfig):
    """Tomograph each prepared state, then jointly fit the noise model.

    The fitted visibility and white weight are repeated on every row so the
    file stays flat.
    """
    grid, states = _grid(cfg)
    tables = [
        simulate_tomography(probs, cfg.shots, *point_seeds(cfg.seed, index, count=1))
        for index, probs in enumerate(setting_probabilities(states))
    ]
    rho_hats = reconstruct(np.stack(tables))
    extracted = [extract_params(rho_hat) for rho_hat in rho_hats]
    fitted = fit_noise(
        [(rho_hat, PreparationSettings(p.beta, p.phi)) for rho_hat, p in zip(rho_hats, extracted)]
    )
    rows = []
    for (beta, phi), rho_hat, params in zip(grid, rho_hats, extracted):
        row = [
            math.degrees(beta),
            phi,
            math.degrees(params.beta),
            params.phi,
            params.fidelity_to_ideal,
            fitted.visibility,
            fitted.white_weight,
        ]
        rows.append(row + list(rho_hat.matrix.view(np.float64).ravel()))  # re, im interleaved
    return TOMOGRAPHY_HEADER, rows


_RUNNERS = {
    "phase-sweep": run_phase_sweep,
    "beta-sweep": run_phase_sweep,
    "mixture-sweep": run_mixture_sweep,
    "plate-calibration": run_plate_calibration,
    "counts-demo": run_counts_demo,
    "tomography-demo": run_tomography_demo,
}


def run_scenario(cfg: ResolvedConfig):
    return _RUNNERS[cfg.scenario](cfg)


def format_cell(value) -> str:
    """CSV cell: integers verbatim, floats with 12 significant digits."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def render_csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(value) for value in row))
    return "\n".join(lines) + "\n"
