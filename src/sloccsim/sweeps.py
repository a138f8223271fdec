"""Experiment drivers: resolved config in, CSV header plus rows out.

A runner finishes every stage that can raise before it returns.  Its rows are
a one-pass iterator that converts the numeric result columns ``BLOCK_ROWS``
rows at a time, and ``render_csv`` writes them to a text stream block by
block, so neither the rows nor the CSV text are ever held whole.

A grid scenario holds its points as one (N, 4) ket stack, a mixture sweep as
its weights.  ``_in_blocks`` walks them once, in ``row_blocks`` blocks: each
block's validated noisy states are built, read out (rotation and diagonal, or
the tomography settings), drawn from the block's own row streams and, in
tomography, reconstructed, so no state, probability or count table spans more
than a block; the blocks give the bits of a whole-stack call.  The estimators
work through their stacks a block at a time too.  Row i draws its counts from
the stream of ``default_rng(SeedSequence([seed, i]).generate_state(1,
uint64)[0])``, so rows never depend on evaluation order and identical configs
reproduce identical files.  ``row_seeds`` and ``row_generators`` reach those
streams without building a SeedSequence per row: both SeedSequence hashes run
as uint32 array operations over many rows at once (``HASH_ROWS`` rows at a
time in ``row_generators``), and numpy's PCG64 seeds each row's own Generator
from its hashed words.  The streams, and so every count, are the same as with
the per-row objects.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from .config import ResolvedConfig, check_row_count, check_seed
from .errors import TallyRowError
from .measurement import BLOCK_ROWS, estimate_phase, outcome_probs, rotate_density, row_blocks, sample_counts
from .mixture import estimate_p, mixed_state, mixture_expectation
from .noise import fit_noise, noisy_state
from .plate import wrap_phase
from .slocc import PreparationSettings, lr_ket_blocks
from .states import canonical_phase, ket_to_density, validate_densities
from .tomography import extract_params, reconstruct, setting_probabilities, simulate_tomography


# numpy's SeedSequence: O'Neill's seed_seq_fe with a pool of four uint32 words
_POOL = 4
_INIT_A, _MULT_A = np.uint32(0x43B0D7E5), np.uint32(0x931E8875)
_INIT_B, _MULT_B = np.uint32(0x8B51F9DD), np.uint32(0x58F38DED)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


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
    check_seed(seed)
    seed_words = [seed & 0xFFFFFFFF, seed >> 32] if seed >> 32 else [seed]
    entropy = np.empty((len(indices), len(seed_words) + 1), dtype=np.uint32)
    entropy[:, :-1] = seed_words
    entropy[:, -1] = indices
    return _seed_sequence(entropy, 2 * count)


def row_seeds(seed: int, n: int, count: int = 1) -> np.ndarray:
    """Row i's ``SeedSequence([seed, i]).generate_state(count, uint64)``, for i < n.

    Returns an (n, count) uint64 array, computed for all rows at once.
    Column 0 does not depend on ``count``.
    """
    check_row_count(n)
    return _as_uint64(_row_words(int(seed), np.arange(n, dtype=np.uint32), count))


def point_seeds(seed: int, index: int, count: int = 2) -> list[int]:
    """Deterministic per-point seeds, independent of evaluation order: row ``index`` of ``row_seeds``.

    The pipeline does not call this; perfbench's tracer pins this name.  ``index`` takes a row count's bounds.
    """
    check_row_count(index)
    words = _row_words(int(seed), np.array([index], dtype=np.uint32), count)
    return _as_uint64(words)[0].tolist()


# Rows whose seeds row_generators hashes in one pass.  A pass makes about a hundred small
# numpy calls whatever its size (hashing each block of BLOCK_ROWS rows apart made the
# streams about 30% slower), and its arrays hold about 60 bytes per row.
HASH_ROWS = 8 * BLOCK_ROWS


def row_generators(seed: int, n: int):
    """Yield, for each row i < n, a new Generator at ``default_rng(row_seeds(seed, n)[i, 0])``'s start.

    ``PCG64(count_seed)`` seeds from ``SeedSequence(count_seed).generate_state(4,
    uint64)``; those words are hashed here HASH_ROWS rows at a time, when the
    pass reaches them, and each row's are handed to PCG64 as its seed sequence.
    """
    # numpy.random is imported here, not with the module, so that importing the CLI stays cheap
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class RowWords(ISeedSequence):
        """One row's hashed words, as the seed sequence PCG64 draws its four uint64 words from."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    check_row_count(n)
    check_seed(seed)  # the hash pass checks it too, but an empty run makes none
    for start in range(0, n, HASH_ROWS):
        # each count seed as its two uint32 words; a zero high word hashes as if absent
        indices = np.arange(start, min(start + HASH_ROWS, n), dtype=np.uint32)
        count_seeds = _row_words(int(seed), indices, 1)
        words = _as_uint64(_seed_sequence(count_seeds, 8)).astype(np.uint64, copy=False)
        for row in words:
            yield Generator(PCG64(RowWords(row)))


def _in_blocks(stage, rows, seed: int) -> np.ndarray:
    """``stage(block, rngs)`` on each ``row_blocks`` block of ``rows``, written into one result.

    ``rngs`` yields the block's own row streams, the next ones of one
    ``row_generators(seed, len(rows))`` pass, which ends with the walk.
    ``stage`` must act row by row, so that the blocks give the bits of one
    whole-stack call; only one block's temporaries are alive at a time.
    """
    rngs = row_generators(seed, len(rows))
    out = None
    for block in row_blocks(len(rows)):
        block_rows = rows[block]
        part = stage(block_rows, itertools.islice(rngs, len(block_rows)))
        if out is None:
            out = np.empty((len(rows), *part.shape[1:]), dtype=part.dtype)
        out[block] = part
    return out


def _grid(cfg: ResolvedConfig):
    """A grid scenario's (beta, phi) rows, beta outermost, as one pass, and its (N, 4) kets; each angle checked once."""
    phases = [cmath.exp(1j * canonical_phase(phi)) for phi in cfg.phi_list]
    kets = lr_ket_blocks([(PreparationSettings(beta).beta, phases) for beta in cfg.beta_list])
    return itertools.product(cfg.beta_list, cfg.phi_list), kets


def _noisy(cfg: ResolvedConfig, ideals: np.ndarray) -> np.ndarray:
    """A block of ideal density matrices with the run's noise mixed in, validated."""
    return validate_densities(noisy_state(ideals, cfg.noise))


def _sample(cfg: ResolvedConfig, rows, ideals) -> np.ndarray:
    """Build, rotate, read out and draw each block in turn: the (N, 4) int64 tallies, unchecked.

    ``ideals`` maps a block of ``rows`` (kets, or mixture weights) to its ideal
    density matrices.  The estimators reject a row they cannot use (Poisson can
    draw one without a coincidence); the sweeps that estimate add its name.
    """

    def stage(block, rngs):
        return sample_counts(outcome_probs(rotate_density(_noisy(cfg, ideals(block)))), cfg.shots, rngs, cfg.sampling)

    return _in_blocks(stage, rows, cfg.seed)


def _column_rows(*columns):
    """The rows of equal-length numeric columns, as tuples of Python numbers, in one pass.

    A 2-D column gives each row a list.  Each block of BLOCK_ROWS rows is
    converted by ``tolist`` when the pass reaches it, so no N-row list is built.
    """
    for block in row_blocks(len(columns[0])):
        yield from zip(*(column[block].tolist() for column in columns))


PHASE_SWEEP_HEADER = [
    "beta_deg", "phi_rad", "cos_phi", "zz_ideal", "zz_noisy_expected", "zz_sampled", "zz_sampled_err", "phi_hat",
    "phi_err",
]


def run_phase_sweep(cfg: ResolvedConfig):
    """Full pipeline per (beta, phi): prepare, add noise, rotate, count, invert.

    Also serves the beta-sweep scenario; the two differ only in which list
    the configuration varies.
    """
    grid, kets = _grid(cfg)
    tallies = _sample(cfg, kets, ket_to_density)
    del kets  # the estimator's working set need not hold the kets beside it
    vis = cfg.noise.visibility
    betas = [beta for beta in cfg.beta_list for _ in cfg.phi_list]
    try:
        est = estimate_phase(tallies, betas, vis)
    except TallyRowError as exc:
        beta_index, phi_index = divmod(exc.row, len(cfg.phi_list))
        beta, phi = cfg.beta_list[beta_index], cfg.phi_list[phi_index]
        name = f"beta {math.degrees(beta):.12g} deg, phi {phi:.12g} rad"
        raise ValueError(f"row {exc.row} ({name}): {exc}") from None
    # the grid runs beta outermost: one sin per beta, one cos per phi
    sines = np.array([math.sin(2.0 * beta) for beta in cfg.beta_list])
    cosines = np.array([math.cos(phi) for phi in cfg.phi_list])
    zz_ideal = np.multiply.outer(sines, cosines).ravel()
    columns = (np.tile(cosines, len(sines)), zz_ideal, vis * zz_ideal, est.zz_hat, est.zz_sigma, est.phi_hat, est.sigma)
    rows = zip(grid, _column_rows(*columns))
    return PHASE_SWEEP_HEADER, ((math.degrees(beta), phi, *values) for (beta, phi), values in rows)


MIXTURE_HEADER = ["p", "phi1_rad", "phi2_rad", "zz_ideal", "zz_sampled", "p_hat_raw", "p_hat", "p_err"]


def run_mixture_sweep(cfg: ResolvedConfig):
    """Sample each mixture on the weight grid and invert for the weight."""
    phi1, phi2 = cfg.phi_list
    beta = cfg.beta_list[0]
    tallies = _sample(cfg, cfg.p_list, lambda weights: mixed_state(weights, phi1, phi2, beta))
    try:
        est = estimate_p(tallies, phi1, phi2, beta, cfg.noise.visibility)
    except TallyRowError as exc:
        raise ValueError(f"row {exc.row} (p {cfg.p_list[exc.row]:.12g}): {exc}") from None
    ideals = mixture_expectation(cfg.p_list, phi1, phi2, beta)
    rows = zip(cfg.p_list, _column_rows(ideals, est.zz_hat, est.p_raw, est.p_hat, est.sigma))
    return MIXTURE_HEADER, ((p, phi1, phi2, *values) for p, values in rows)


PLATE_HEADER = ["x_mm", "phi_unwrapped_rad", "phi_wrapped_rad"]


def run_plate_calibration(cfg: ResolvedConfig):
    """Displacement to phase table: the plate phases the config resolver computed, and their folds."""
    table = zip(cfg.x_list, cfg.plate_phases)
    return PLATE_HEADER, ((x * 1e3, phase, wrap_phase(phase)) for x, phase in table)


COUNTS_HEADER = ["beta_deg", "phi_rad", "n13", "n14", "n23", "n24", "total"]


def run_counts_demo(cfg: ResolvedConfig):
    """Raw coincidence tallies per (beta, phi)."""
    grid, kets = _grid(cfg)
    rows = zip(grid, _column_rows(_sample(cfg, kets, ket_to_density)))
    # each tally row as Python ints, whose sum is exact: Poisson totals can pass 2**63 - 1
    return COUNTS_HEADER, ((math.degrees(beta), phi, *counts, sum(counts)) for (beta, phi), (counts,) in rows)


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

    One walk builds, reads out, draws and reconstructs each block of states; the
    fitted visibility and white weight repeat on every row, so the file stays flat.
    """

    def stage(block, rngs):
        probs = setting_probabilities(_noisy(cfg, ket_to_density(block)))
        return reconstruct(simulate_tomography(probs, cfg.shots, rngs))

    grid, kets = _grid(cfg)
    rho_hats = _in_blocks(stage, kets, cfg.seed)
    del kets
    extracted = extract_params(rho_hats)
    fitted = fit_noise(rho_hats, extracted.kets)
    fit = (fitted.visibility, fitted.white_weight)
    cells = rho_hats.view(np.float64).reshape(len(rho_hats), 32)  # re, im interleaved
    rows = zip(grid, _column_rows(extracted.beta, extracted.phi, extracted.fidelity_to_ideal, cells))
    return TOMOGRAPHY_HEADER, (
        (math.degrees(beta), phi, math.degrees(beta_hat), phi_hat, fidelity, *fit, *rho)
        for (beta, phi), (beta_hat, phi_hat, fidelity, rho) in rows
    )


_RUNNERS = {
    "phase-sweep": run_phase_sweep,
    "beta-sweep": run_phase_sweep,
    "mixture-sweep": run_mixture_sweep,
    "plate-calibration": run_plate_calibration,
    "counts-demo": run_counts_demo,
    "tomography-demo": run_tomography_demo,
}


def run_scenario(cfg: ResolvedConfig):
    """The scenario's CSV header and a one-pass iterator over its rows; every stage that can raise has run."""
    return _RUNNERS[cfg.scenario](cfg)


# The tally columns (n13, n14, n23, n24, total); every other column holds floats.
COUNT_COLUMNS = frozenset(COUNTS_HEADER[2:])


def render_csv(header, rows, out) -> None:
    """Write CSV to the text stream ``out``: tally columns as integers, every other cell with 12 significant digits.

    One ``%`` template per header, applied once per row: ``"%d"`` for the
    tally columns and ``"%.12g"``, which formats a float exactly as
    ``format(float(value), ".12g")`` does, for the rest.  ``rows`` is read
    in one pass, and each block of BLOCK_ROWS lines goes to ``out`` as one
    string, so neither the rows nor the text are ever held whole.
    """
    line = ",".join("%d" if name in COUNT_COLUMNS else "%.12g" for name in header) + "\n"
    out.write(",".join(header) + "\n")
    rows = iter(rows)
    while text := "".join([line % tuple(row) for row in itertools.islice(rows, BLOCK_ROWS)]):
        out.write(text)
