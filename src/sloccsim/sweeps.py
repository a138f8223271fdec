"""Experiment drivers: resolved config in, CSV header plus rows out.

A scenario's states form one validated (N, 4, 4) stack.  Row i draws its
counts from the stream of ``default_rng(SeedSequence([seed, i]).generate_state(1,
uint64)[0])``, so rows never depend on evaluation order and identical configs
reproduce identical files.  ``row_seeds`` and ``row_generators`` reach those
streams without building a SeedSequence or a generator per row: both
SeedSequence hashes run as uint32 array operations over all rows at once, and
one reused PCG64 is set to each row's starting state.  The streams, and so
every count, are the same as with the per-row objects.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .config import ResolvedConfig
from .errors import TallyRowError
from .measurement import estimate_phase, outcome_probs, rotate_density, sample_counts
from .mixture import estimate_p, mixed_state, mixture_expectation
from .noise import fit_noise, noisy_state
from .slocc import PreparationSettings, lr_ket_blocks
from .states import canonical_phase, ket_to_density, validate_densities
from .tomography import extract_params, reconstruct, setting_probabilities, simulate_tomography


# numpy's SeedSequence: O'Neill's seed_seq_fe with a pool of four uint32 words
_POOL = 4
_INIT_A, _MULT_A = np.uint32(0x43B0D7E5), np.uint32(0x931E8875)
_INIT_B, _MULT_B = np.uint32(0x8B51F9DD), np.uint32(0x58F38DED)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hashmix(value, const, mult):
    """One seed_seq_fe hash step: the hashed value and the next hash constant."""
    const_next = const * mult
    value = (value ^ const) * const_next
    return value ^ (value >> _SHIFT), const_next


def _seed_sequence(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(row).generate_state(n_words, uint32)`` for each row of ``entropy``.

    ``entropy`` is an (n, k) uint32 array with k <= 4, each row a seed's
    32-bit words, low first.  numpy hashes a missing pool word as 0, so a
    row ending in zero words gives the same state as the row without them.
    Returns an (n, n_words) uint32 array; the hash constants do not depend
    on the data, so every step is one operation over all rows.
    """
    with np.errstate(over="ignore"):  # uint32 products wrap mod 2**32, as in C
        const = _INIT_A
        pool = []
        for i in range(_POOL):
            word = entropy[:, i] if i < entropy.shape[1] else np.uint32(0)
            word, const = _hashmix(word, const, _MULT_A)
            pool.append(word)
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    hashed, const = _hashmix(pool[src], const, _MULT_A)
                    mixed = _MIX_L * pool[dst] - _MIX_R * hashed
                    pool[dst] = mixed ^ (mixed >> _SHIFT)
        const = _INIT_B
        out = np.empty((entropy.shape[0], n_words), dtype=np.uint32)
        for i in range(n_words):
            out[:, i], const = _hashmix(pool[i % _POOL], const, _MULT_B)
    return out


def _as_uint64(words: np.ndarray) -> np.ndarray:
    """Pairs of uint32 words, low first, as uint64: numpy's little-endian view, no copy here."""
    return np.ascontiguousarray(words, dtype="<u4").view("<u8")


def _row_words(seed: int, indices: np.ndarray, count: int) -> np.ndarray:
    """The 2 * count uint32 words of ``SeedSequence([seed, i]).generate_state(count, uint64)``."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64 - 1], got {seed}")
    seed_words = [seed & 0xFFFFFFFF, seed >> 32] if seed >> 32 else [seed]
    entropy = np.empty((len(indices), len(seed_words) + 1), dtype=np.uint32)
    entropy[:, :-1] = seed_words
    entropy[:, -1] = indices
    return _seed_sequence(entropy, 2 * count)


def _row_indices(n: int) -> np.ndarray:
    # the row index is one uint32 word of the entropy
    if not 0 <= n < 2**32:
        raise ValueError(f"the row count must lie in [0, 2**32 - 1], got {n}")
    return np.arange(n, dtype=np.uint32)


def row_seeds(seed: int, n: int, count: int = 1) -> np.ndarray:
    """Row i's ``SeedSequence([seed, i]).generate_state(count, uint64)``, for i < n.

    Returns an (n, count) uint64 array, computed for all rows at once.
    Column 0 does not depend on ``count``.
    """
    return _as_uint64(_row_words(int(seed), _row_indices(n), count))


def point_seeds(seed: int, index: int, count: int = 2) -> list[int]:
    """Deterministic per-point seeds, independent of evaluation order: row ``index`` of ``row_seeds``."""
    if not 0 <= index < 2**32:
        raise ValueError(f"row index must lie in [0, 2**32 - 1], got {index}")
    words = _row_words(int(seed), np.array([index], dtype=np.uint32), count)
    return _as_uint64(words)[0].tolist()


def row_generators(seed: int, n: int):
    """Yield, for each row i < n, a Generator at ``default_rng(row_seeds(seed, n)[i, 0])``'s start.

    The same Generator is yielded every time and moved to the next row's
    stream on the next step, so draw from it before advancing.  Its PCG64
    is built once from the fixed seed 0, never from OS entropy, and every
    row overwrites that state through the checked ``state`` setter.
    Row i's state is what ``PCG64(count_seed)`` seeds: the count seed's two
    uint32 words hashed into four uint64 words v0..v3, then, mod 2**128,
    init = v0 * 2**64 + v1, inc = 2 * (v2 * 2**64 + v3) + 1 and
    state = (inc + init) * multiplier + inc.  The hashes run over all rows
    at once; the 128-bit states are computed one row at a time, as the rows
    are drawn.
    """
    # each count seed as its two uint32 words; a zero high word hashes as if absent
    count_seeds = _row_words(int(seed), _row_indices(n), 1)
    # PCG64(count_seed) seeds from SeedSequence(count_seed).generate_state(4, uint64)
    words = _as_uint64(_seed_sequence(count_seeds, 8))
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for row in words:  # one row at a time: a list of all rows' words raised peak RSS
        v0, v1, v2, v3 = row.tolist()
        inc = ((v2 << 64 | v3) << 1 | 1) & _MASK128
        state = ((inc + (v0 << 64 | v1)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def _grid(cfg: ResolvedConfig):
    """A grid scenario's (beta, phi) rows, beta outermost, and noisy states; each angle checked once."""
    grid = [(beta, phi) for beta in cfg.beta_list for phi in cfg.phi_list]
    phases = [cmath.exp(1j * canonical_phase(phi)) for phi in cfg.phi_list]
    kets = lr_ket_blocks([(PreparationSettings(beta).beta, phases) for beta in cfg.beta_list])
    return grid, validate_densities(noisy_state(ket_to_density(kets), cfg.noise))


def _sample(cfg: ResolvedConfig, states: np.ndarray) -> list[list[int]]:
    """Rotate, read out and draw the whole stack; each row's tally as Python ints, unchecked.

    The estimators reject a row they cannot use (Poisson can draw one without
    a coincidence); the sweeps that estimate add the row's name to the message.
    """
    probs = outcome_probs(rotate_density(states))
    rngs = row_generators(cfg.seed, len(probs))
    return sample_counts(probs, cfg.shots, rngs, cfg.sampling).tolist()


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
    try:
        est = estimate_phase(_sample(cfg, states), [beta for beta, _ in grid], vis)
    except TallyRowError as exc:
        beta, phi = grid[exc.row]
        name = f"beta {math.degrees(beta):.12g} deg, phi {phi:.12g} rad"
        raise ValueError(f"row {exc.row} ({name}): {exc}") from None
    # the grid runs beta outermost: one sin per beta, one cos per phi
    sines = [(math.degrees(beta), math.sin(2.0 * beta)) for beta in cfg.beta_list]
    cosines = [(phi, math.cos(phi)) for phi in cfg.phi_list]
    ideals = [(beta_deg, phi, cos_phi, sin_2b * cos_phi) for beta_deg, sin_2b in sines for phi, cos_phi in cosines]
    columns = zip(ideals, est.zz_hat.tolist(), est.zz_sigma.tolist(), est.phi_hat.tolist(), est.sigma.tolist())
    return PHASE_SWEEP_HEADER, [[*ideal, vis * ideal[3], *estimates] for ideal, *estimates in columns]


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
    phi1, phi2 = cfg.phi_list
    beta = cfg.beta_list[0]
    states = validate_densities(noisy_state(mixed_state(cfg.p_list, phi1, phi2, beta), cfg.noise))
    try:
        est = estimate_p(_sample(cfg, states), phi1, phi2, beta, cfg.noise.visibility)
    except TallyRowError as exc:
        raise ValueError(f"row {exc.row} (p {cfg.p_list[exc.row]:.12g}): {exc}") from None
    ideals = mixture_expectation(cfg.p_list, phi1, phi2, beta).tolist()
    columns = zip(cfg.p_list, ideals, est.zz_hat.tolist(), est.p_raw.tolist(), est.p_hat.tolist(), est.sigma.tolist())
    return MIXTURE_HEADER, [[p, phi1, phi2, *values] for p, *values in columns]


PLATE_HEADER = ["x_mm", "phi_unwrapped_rad", "phi_wrapped_rad"]


def run_plate_calibration(cfg: ResolvedConfig):
    """Displacement to phase table: the plate phases the config resolver computed."""
    table = zip(cfg.x_list, cfg.plate_phases)
    return PLATE_HEADER, [[x * 1e3, phase.unwrapped, phase.wrapped] for x, phase in table]


COUNTS_HEADER = ["beta_deg", "phi_rad", "n13", "n14", "n23", "n24", "total"]


def run_counts_demo(cfg: ResolvedConfig):
    """Raw coincidence tallies per (beta, phi)."""
    grid, states = _grid(cfg)
    rows = []
    for (beta, phi), counts in zip(grid, _sample(cfg, states)):
        # a Python int sum: Poisson totals can pass 2**63 - 1
        rows.append([math.degrees(beta), phi, *counts, sum(counts)])
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
    rngs = row_generators(cfg.seed, len(states))
    rho_hats = reconstruct(simulate_tomography(setting_probabilities(states), cfg.shots, rngs))
    extracted = extract_params(rho_hats)
    fitted = fit_noise(rho_hats, extracted.kets)
    fit = (fitted.visibility, fitted.white_weight)
    cells = rho_hats.view(np.float64).reshape(len(rho_hats), 32).tolist()  # re, im interleaved
    reads = (extracted.beta.tolist(), extracted.phi.tolist(), extracted.fidelity_to_ideal.tolist())
    columns = zip(grid, *reads, cells)
    return TOMOGRAPHY_HEADER, [
        [math.degrees(beta), phi, math.degrees(beta_hat), phi_hat, fidelity, *fit, *rho]
        for (beta, phi), beta_hat, phi_hat, fidelity, rho in columns
    ]


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


# The tally columns (n13, n14, n23, n24, total); every other column holds floats.
COUNT_COLUMNS = frozenset(COUNTS_HEADER[2:])


def render_csv(header, rows) -> str:
    """CSV text: tally columns as integers, every other cell with 12 significant digits.

    One ``%`` template per header, applied once per row: ``"%d"`` for the
    tally columns and ``"%.12g"``, which formats a float exactly as
    ``format(float(value), ".12g")`` does, for the rest.
    """
    template = ",".join("%d" if name in COUNT_COLUMNS else "%.12g" for name in header)
    lines = [",".join(header)]
    lines.extend(template % tuple(row) for row in rows)
    return "\n".join(lines) + "\n"
