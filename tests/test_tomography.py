import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sloccsim import (
    DensityMatrix4,
    ExtractionError,
    NoiseModel,
    PreparationSettings,
    extract_params,
    fidelity_pure,
    ket_to_density,
    noisy_state,
    prepare_lr,
    reconstruct,
    setting_probabilities,
    simulate_tomography,
)
from sloccsim.tomography import AXES, _project_physical

from oracles import extract_params_oracle, fidelity_oracle


def bell_rho():
    return DensityMatrix4(ket_to_density(prepare_lr(PreparationSettings(math.pi / 4, 0.0))))


def circular_diff(a, b):
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def random_mixture(rng, n_terms=3):
    weights = rng.dirichlet(np.ones(n_terms))
    rho = np.zeros((4, 4), dtype=np.complex128)
    for w in weights:
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        rho += w * np.outer(v, v.conj())
    return DensityMatrix4(rho)


def test_setting_probabilities_on_known_states():
    setting = {pair: i for i, pair in enumerate(itertools.product(AXES, AXES))}
    up_up = ket_to_density(np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128))
    assert np.allclose(
        setting_probabilities(up_up)[setting["Z", "Z"]], [1.0, 0.0, 0.0, 0.0], atol=1e-12
    )
    rho = bell_rho().matrix
    assert np.allclose(
        setting_probabilities(rho)[setting["Z", "Z"]], [0.0, 0.5, 0.5, 0.0], atol=1e-12
    )
    assert np.allclose(
        setting_probabilities(rho)[setting["X", "X"]], [0.5, 0.0, 0.0, 0.5], atol=1e-12
    )
    assert np.allclose(
        setting_probabilities(rho)[setting["Y", "Y"]], [0.5, 0.0, 0.0, 0.5], atol=1e-12
    )


def test_reconstruct_rejects_bad_weights():
    table = setting_probabilities(bell_rho().matrix)
    negative = table.copy()
    negative[8] = [-1.0, 2.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="nonnegative"):
        reconstruct(negative[None])
    empty = table.copy()
    empty[8] = 0.0
    with pytest.raises(ValueError, match="setting ZZ has zero total weight"):
        reconstruct(empty[None])


def test_simulate_tomography_deterministic():
    probs = setting_probabilities(bell_rho().matrix[None])
    a = simulate_tomography(probs, 2000, [np.random.default_rng(5)])
    b = simulate_tomography(probs, 2000, [np.random.default_rng(5)])
    c = simulate_tomography(probs, 2000, [np.random.default_rng(6)])
    assert np.array_equal(a, b)
    assert a.shape == (1, 9, 4) and a.dtype == np.float64
    assert np.all(a.sum(axis=-1) == 2000.0)
    assert not np.array_equal(a, c)
    for shots in (0, 2**63):  # 2**63 overflowed inside numpy's multinomial
        with pytest.raises(ValueError, match=rf"^shots must be an integer in \[1, 2\*\*63 - 1\], got {shots}$"):
            simulate_tomography(probs, shots, [np.random.default_rng(1)])
    with pytest.raises(ValueError, match=r"shape \(N, 9, 4\)"):
        simulate_tomography(probs[0], 2000, [np.random.default_rng(1)])
    # 2.5 drew 2 per setting
    with pytest.raises(ValueError, match=r"^shots must be an integer in \[1, 2\*\*63 - 1\], got 2.5$"):
        simulate_tomography(probs, 2.5, [np.random.default_rng(1)])
    assert np.array_equal(simulate_tomography(probs, np.uint32(2000), [np.random.default_rng(5)]), a)


def test_simulate_tomography_draws_each_state_from_its_own_generator():
    # state i is one multinomial call over its nine settings on the i-th generator
    states = np.stack([bell_rho().matrix, np.eye(4, dtype=np.complex128) / 4.0])
    probs = setting_probabilities(states)
    rngs = [np.random.default_rng(seed) for seed in (11, 12)]
    tables = simulate_tomography(probs, 500, rngs)
    for table, p, seed, rng in zip(tables, probs, (11, 12), rngs):
        reference = np.random.default_rng(seed)
        assert np.array_equal(table, reference.multinomial(500, p))
        assert rng.bit_generator.state == reference.bit_generator.state
    with pytest.raises(ValueError, match="zip"):
        simulate_tomography(probs, 500, rngs[:1])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_reconstruct_rejects_non_finite_weights(bad):
    # NaN passed the sign and total checks and broke eigh; inf also warned on division
    tables = np.ones((1, 9, 4))
    tables[0, 4, 2] = bad
    with pytest.raises(ValueError, match="^outcome weights must be finite$"):
        reconstruct(tables)


def test_reconstruct_exact_on_infinite_shot_data():
    rng = np.random.default_rng(23)
    for _ in range(30):
        rho = random_mixture(rng)
        rebuilt = reconstruct(setting_probabilities(rho.matrix)[None])[0]
        assert np.max(np.abs(rebuilt - rho.matrix)) < 1e-12


def test_reconstruct_requires_all_settings():
    table = setting_probabilities(bell_rho().matrix)
    partial = np.delete(table, 5, axis=0)  # drop the (Y, Z) setting
    with pytest.raises(ValueError, match="shape"):
        reconstruct(partial[None])
    with pytest.raises(ValueError, match="shape"):
        reconstruct(table)


def test_projection_fixes_negative_eigenvalue():
    rng = np.random.default_rng(31)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(raw)
    spectrum = np.array([1.2, 0.05, -0.1, -0.15])  # trace 1, one sector unphysical
    m = (q * spectrum) @ q.conj().T
    fixed = _project_physical(m[None])[0]
    vals = np.linalg.eigvalsh(fixed)
    assert np.all(vals >= -1e-14)
    assert np.trace(fixed).real == pytest.approx(1.0, abs=1e-12)
    # closer in Frobenius norm than the clip-then-rescale shortcut
    naive_vals = np.clip(spectrum, 0.0, None)
    naive = (q * (naive_vals / naive_vals.sum())) @ q.conj().T
    assert np.linalg.norm(fixed - m) < np.linalg.norm(naive - m)


def test_projection_is_idempotent():
    rng = np.random.default_rng(32)
    for _ in range(20):
        rho = random_mixture(rng)
        once = _project_physical(rho.matrix[None])
        assert np.max(np.abs(once[0] - rho.matrix)) < 1e-12
        twice = _project_physical(once)
        assert np.max(np.abs(twice - once)) < 1e-12


def test_sampled_bell_reconstruction_fidelity():
    rho = bell_rho()
    data = simulate_tomography(
        setting_probabilities(rho.matrix[None]), 100_000, [np.random.default_rng(20260819)]
    )
    rebuilt = reconstruct(data)[0]
    target = prepare_lr(PreparationSettings(math.pi / 4, 0.0))
    fid = fidelity_pure(rebuilt[None], target[None])[0]
    assert fid >= 0.999
    assert fid <= 1.0 + 1e-12
    assert fid == pytest.approx(fidelity_oracle(rebuilt, target), abs=1e-12)


def test_extraction_round_trip_exact():
    for beta_deg in (15, 30, 45, 60, 75):
        for phi in (0.0, 0.8, math.pi / 2, 2.4, math.pi, 4.5):
            settings = PreparationSettings(math.radians(beta_deg), phi)
            rho = ket_to_density(prepare_lr(settings))
            got = extract_params(reconstruct(setting_probabilities(rho)[None]))
            assert got.beta[0] == pytest.approx(settings.beta, abs=1e-7)
            assert circular_diff(got.phi[0], settings.phi) < 1e-7
            assert got.fidelity_to_ideal[0] == pytest.approx(1.0, abs=1e-9)
            assert got.low_coherence == 0


def test_extraction_on_noisy_sampled_state():
    phi = math.pi / 3
    ideal = ket_to_density(prepare_lr(PreparationSettings(math.pi / 4, phi)))
    rho = noisy_state(ideal, NoiseModel())
    rng = np.random.default_rng(77)
    data = simulate_tomography(setting_probabilities(rho[None]), 20_000, [rng])
    got = extract_params(reconstruct(data))
    assert abs(got.phi[0] - phi) < 0.1
    assert abs(got.beta[0] - math.pi / 4) < 0.05
    assert got.fidelity_to_ideal[0] > 0.95


def test_extraction_flags_low_coherence():
    mixed = DensityMatrix4(np.eye(4, dtype=np.complex128) / 4.0)
    got = extract_params(mixed.matrix[None])
    assert got.low_coherence == 1
    assert got.phi[0] == 0.0
    assert got.beta[0] == pytest.approx(math.pi / 4, abs=1e-12)


def test_extraction_rejects_empty_sector():
    rho = DensityMatrix4(np.diag([1.0, 0.0, 0.0, 0.0]).astype(np.complex128))
    with pytest.raises(ExtractionError, match="^one-per-region sector is empty$"):
        extract_params(rho.matrix[None])
    # one empty state fails the whole stack, wherever it sits
    with pytest.raises(ExtractionError, match="^one-per-region sector is empty$"):
        extract_params(np.stack([bell_rho().matrix, rho.matrix]))


@pytest.mark.parametrize("entry", [(1, 1), (2, 2), (2, 1), (0, 0), (3, 3)])
def test_extraction_rejects_a_nan_state(entry):
    # the per-state reading raised for most of these, and gave a NaN fidelity for (0, 0) and (3, 3)
    rho = bell_rho().matrix.copy()
    rho[entry] = math.nan
    with pytest.raises(ValueError):
        extract_params(np.stack([bell_rho().matrix, rho]))


def _random_state(rng, support, coherence=None):
    """A PSD unit-trace matrix supported on the basis states ``support``.

    With ``coherence`` the matrix is instead diagonal on the support with
    rho[2, 1] = coherence, a magnitude far below the populations.
    """
    rho = np.zeros((4, 4), dtype=np.complex128)
    if coherence is None:
        for w in rng.dirichlet(np.ones(rng.integers(1, 5))):
            v = np.zeros(4, dtype=np.complex128)
            v[support] = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
            rho += w * np.outer(v, v.conj()) / np.vdot(v, v).real
        for index in {1, 2} & set(support):
            rho[index, index] += 0.01  # keeps the one-per-region sector away from empty
    else:
        rho[support, support] = rng.dirichlet(np.ones(len(support))) * 0.99 + 0.0025
        rho[2, 1], rho[1, 2] = coherence, np.conj(coherence)
    return rho / np.trace(rho).real


# (support, whether rho[2, 1] is set below 1e-6): a general state, a coherence
# below the flag threshold, and the one-populated sector edges beta-hat = 0 and pi/2
STATE_KINDS = {
    "general": ([0, 1, 2, 3], False),
    "low coherence": ([0, 1, 2, 3], True),
    "beta 0": ([0, 1, 3], False),
    "beta pi/2": ([0, 2, 3], False),
}


@st.composite
def density_stacks(draw):
    """1-40 reconstructed-like states of the kinds above."""
    kinds = st.tuples(st.sampled_from(sorted(STATE_KINDS)), st.integers(0, 2**32 - 1))
    rows = draw(st.lists(kinds, min_size=1, max_size=40))
    stack = []
    for kind, seed in rows:
        rng = np.random.default_rng(seed)
        support, low = STATE_KINDS[kind]
        coherence = cmath.rect(rng.uniform(0.0, 1e-6), rng.uniform(0.0, 2.0 * math.pi)) if low else None
        stack.append(_random_state(rng, support, coherence))
    return np.stack(stack)


@settings(max_examples=200, deadline=None)
@given(stack=density_stacks())
def test_stacked_extraction_equals_the_per_state_reference(stack):
    got = extract_params(stack)
    refs = [extract_params_oracle(rho) for rho in stack]
    for field in ("phi", "beta", "fidelity_to_ideal"):
        column = getattr(got, field)
        assert column.dtype == np.float64 and column.shape == (len(stack),)
        assert [v.hex() for v in column.tolist()] == [getattr(ref, field).hex() for ref in refs], field
    assert type(got.low_coherence) is int
    assert got.low_coherence == sum(ref.low_coherence for ref in refs)
    ideals = [prepare_lr(PreparationSettings(ref.beta, ref.phi)) for ref in refs]
    assert got.kets.tobytes() == np.array(ideals).tobytes()
