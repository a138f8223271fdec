import cmath
import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sloccsim import DensityMatrix4, PreparationSettings, fidelity_pure, ket_to_density
from sloccsim.config import ExperimentConfig, resolve
from sloccsim.mixture import mixed_state
from sloccsim import states, sweeps
from sloccsim.states import PSD_ATOL, TWO_PI, canonical_phase, validate_densities
from sloccsim.tomography import extract_params

from oracles import (
    agrees_up_to_phase,
    basis_index,
    conjugated,
    fidelity_oracle,
    labelled_bracket,
    labelled_single,
    normalize,
    random_unit_pair,
    validate_densities_oracle,
)
from physics import (
    DegenerateStateError,
    DetectionMode,
    Pseudospin,
    Region,
    SingleParticleState,
    StatisticsParameter,
    joint_amplitude,
)

SQ2 = math.sqrt(0.5)


def test_basis_order_is_fixed():
    assert basis_index(Pseudospin.UP, Pseudospin.UP) == 0
    assert basis_index(Pseudospin.UP, Pseudospin.DOWN) == 1
    assert basis_index(Pseudospin.DOWN, Pseudospin.UP) == 2
    assert basis_index(Pseudospin.DOWN, Pseudospin.DOWN) == 3


def test_four_distinct_detection_modes():
    modes = {
        DetectionMode(region, spin)
        for region in (Region.LEFT, Region.RIGHT)
        for spin in (Pseudospin.UP, Pseudospin.DOWN)
    }
    assert len(modes) == 4


def test_statistics_parameter_canonical_range():
    assert StatisticsParameter(2.0 * math.pi).phi == 0.0
    assert StatisticsParameter(-math.pi / 2).phi == pytest.approx(3.0 * math.pi / 2)
    assert StatisticsParameter.bosonic().eta == pytest.approx(1.0)
    assert StatisticsParameter.fermionic().eta == pytest.approx(-1.0)
    for phi in np.linspace(0.0, 6.0, 17):
        assert abs(abs(StatisticsParameter(phi).eta) - 1.0) <= 1e-12


@given(x=st.floats(allow_nan=False, allow_infinity=False))
@example(x=-1e-300)
@example(x=-0.0)
@example(x=TWO_PI)
def test_canonical_phase_is_in_range_and_idempotent(x):
    phi = canonical_phase(x)
    assert 0.0 <= phi < TWO_PI
    assert canonical_phase(phi) == phi


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_canonical_phase_rejects_a_non_finite_phase(x):
    # x % (2 pi) is NaN for each of these, which no phase in [0, 2 pi) may be
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for reduce in (canonical_phase, lambda phi: PreparationSettings(0.5, phi), StatisticsParameter):
            with pytest.raises(ValueError, match="^phase must be finite, got"):
                reduce(x)
        with pytest.raises(ValueError, match="^phase must be finite, got"):
            mixed_state([0.5], x, 0.0, 0.5)


def test_tiny_negative_phases_are_stored_as_zero():
    # a bare -1e-300 % (2 pi) is exactly 2 pi
    assert StatisticsParameter(-1e-300).phi == 0.0
    assert PreparationSettings(0.3, -1e-300).phi == 0.0
    mixture = resolve(ExperimentConfig(phi_list=[-1e-300, 2.0]), "mixture-sweep")
    assert mixture.phi_list == (0.0, 2.0)
    tiny = mixed_state([0.5], -1e-300, -1e-300, 0.3)
    assert np.array_equal(tiny, mixed_state([0.5], 0.0, 0.0, 0.3))
    coherence = complex(0.5, -1e-300)  # argument -1e-300
    rho = np.diag([0.0, 0.5, 0.5, 0.0]).astype(np.complex128)
    rho[2, 1], rho[1, 2] = coherence, coherence.conjugate()
    assert extract_params(DensityMatrix4(rho).matrix[None]).phi[0] == 0.0


def test_single_particle_state_requires_normalisation():
    SingleParticleState(SQ2, SQ2, Pseudospin.UP)
    with pytest.raises(ValueError):
        SingleParticleState(1.0, 1.0, Pseudospin.UP)


def test_joint_amplitude_distinguishable_case():
    first = SingleParticleState(1.0, 0.0, Pseudospin.UP)
    second = SingleParticleState(0.0, 1.0, Pseudospin.DOWN)
    amp = joint_amplitude(
        DetectionMode(Region.LEFT, Pseudospin.UP),
        DetectionMode(Region.RIGHT, Pseudospin.DOWN),
        first,
        second,
        StatisticsParameter.bosonic(),
    )
    assert amp == pytest.approx(1.0)


def test_joint_amplitude_pauli_blocking():
    # same wave packet, same spin, fermionic: the amplitude cancels exactly
    first = SingleParticleState(SQ2, SQ2, Pseudospin.UP)
    second = SingleParticleState(SQ2, SQ2, Pseudospin.UP)
    amp = joint_amplitude(
        DetectionMode(Region.LEFT, Pseudospin.UP),
        DetectionMode(Region.RIGHT, Pseudospin.UP),
        first,
        second,
        StatisticsParameter.fermionic(),
    )
    assert abs(amp) <= 1e-12


def test_joint_amplitude_rejects_misplaced_ports():
    first = SingleParticleState(1.0, 0.0, Pseudospin.UP)
    second = SingleParticleState(0.0, 1.0, Pseudospin.DOWN)
    with pytest.raises(ValueError):
        joint_amplitude(
            DetectionMode(Region.RIGHT, Pseudospin.UP),
            DetectionMode(Region.RIGHT, Pseudospin.DOWN),
            first,
            second,
            StatisticsParameter.bosonic(),
        )


def test_joint_amplitude_matches_labelled_bracket():
    # exchange-symmetrised bracket in the explicit 16-dim labelled space
    rng = np.random.default_rng(20260819)
    spins = {"up": Pseudospin.UP, "down": Pseudospin.DOWN}
    for _ in range(250):
        l, r = random_unit_pair(rng)
        lp, rp = random_unit_pair(rng)
        spin1 = rng.choice(["up", "down"])
        spin2 = rng.choice(["up", "down"])
        first = SingleParticleState(l, r, spins[spin1])
        second = SingleParticleState(lp, rp, spins[spin2])
        first_vec = labelled_single(l, r, spin1)
        second_vec = labelled_single(lp, rp, spin2)
        for eta_value, eta in ((1.0, StatisticsParameter.bosonic()), (-1.0, StatisticsParameter.fermionic())):
            for sl in ("up", "down"):
                for sr in ("up", "down"):
                    got = joint_amplitude(
                        DetectionMode(Region.LEFT, spins[sl]),
                        DetectionMode(Region.RIGHT, spins[sr]),
                        first,
                        second,
                        eta,
                    )
                    want = labelled_bracket(sl, sr, first_vec, second_vec, eta_value)
                    assert abs(got - want) <= 1e-12


def test_joint_amplitude_swap_conjugates_statistics():
    # swapping the particles multiplies by eta once the phase sign flips too
    rng = np.random.default_rng(11)
    for _ in range(100):
        l, r = random_unit_pair(rng)
        lp, rp = random_unit_pair(rng)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        eta = StatisticsParameter(phi)
        first = SingleParticleState(l, r, Pseudospin.UP)
        second = SingleParticleState(lp, rp, Pseudospin.DOWN)
        for sl in (Pseudospin.UP, Pseudospin.DOWN):
            for sr in (Pseudospin.UP, Pseudospin.DOWN):
                port_l = DetectionMode(Region.LEFT, sl)
                port_r = DetectionMode(Region.RIGHT, sr)
                direct = joint_amplitude(port_l, port_r, first, second, eta)
                swapped = joint_amplitude(port_l, port_r, second, first, conjugated(eta))
                assert abs(direct - eta.eta * swapped) <= 1e-12


def test_normalize():
    ket = normalize([2.0, 0.0, 0.0, 0.0])
    assert np.linalg.norm(ket) == pytest.approx(1.0, abs=1e-12)
    assert ket[0] == pytest.approx(1.0)
    with pytest.raises(DegenerateStateError):
        normalize([0.0, 0.0, 0.0, 0.0])


def test_agrees_up_to_phase():
    ket = normalize([1.0, 1.0j, 0.0, 0.0])
    assert agrees_up_to_phase(ket, ket * cmath.exp(0.7j))
    assert not agrees_up_to_phase(ket, normalize([1.0, 0.0, 0.0, 1.0]))


def test_ket_to_density_is_projector():
    rng = np.random.default_rng(3)
    for _ in range(25):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        m = ket_to_density(normalize(raw))
        assert np.allclose(m, m.conj().T, atol=1e-12)
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(m @ m, m, atol=1e-12)
    with pytest.raises(ValueError):
        ket_to_density(np.array([2.0, 0.0, 0.0, 0.0], dtype=np.complex128))


def test_ket_to_density_rejects_a_nan_ket():
    # a NaN norm fails a "deviation > tolerance" test, so the check must fail it instead
    kets = np.array([[0.0, SQ2, SQ2, 0.0], [0.0, SQ2, math.nan, 0.0]], dtype=np.complex128)
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        for stack in (kets, kets[1]):
            with pytest.raises(ValueError, match="^kets must have unit norm; rescale them to norm 1 first$"):
                ket_to_density(stack)


@pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2)])
def test_ket_to_density_rejects_a_wrong_trailing_shape(shape):
    # (N, 3) kets became (N, 3, 3) matrices
    kets = np.full(shape, 1.0 / math.sqrt(shape[-1]), dtype=np.complex128)
    with pytest.raises(ValueError, match=rf"^kets must have shape \(\.\.\., 4\), got {re.escape(str(shape))}$"):
        ket_to_density(kets)


@pytest.mark.parametrize("shape", [(8, 2), (2, 8), (16,), (1, 4, 2, 2)])
def test_validate_densities_rejects_a_wrong_trailing_shape(shape):
    # each holds a multiple of 16 entries that a (-1, 4, 4) reshape accepted as one valid state
    matrices = (np.eye(4, dtype=np.complex128) / 4.0).reshape(shape)
    message = rf"^density matrices must have shape \(\.\.\., 4, 4\), got {re.escape(str(shape))}$"
    with pytest.raises(ValueError, match=message):
        validate_densities(matrices)
    with pytest.raises(ValueError, match=message):
        validate_densities(matrices.tolist())


def test_validate_densities_takes_a_plain_list():
    state = np.eye(4) / 4.0
    assert np.array_equal(validate_densities(state.tolist()), state)
    with pytest.raises(ValueError, match="^density matrix is not Hermitian$"):
        validate_densities((state + np.triu(np.ones((4, 4)), 1)).tolist())


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix4(np.array([[0.5, 1.0], [0.0, 0.5]]))  # wrong shape
    bad_herm = np.eye(4, dtype=complex) / 4.0
    bad_herm[0, 1] = 0.3
    with pytest.raises(ValueError):
        DensityMatrix4(bad_herm)
    with pytest.raises(ValueError):
        DensityMatrix4(np.eye(4) / 2.0)  # trace 2
    negative = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        DensityMatrix4(negative)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (1, 2)], ids=["diagonal", "off-diagonal"])
def test_validate_densities_rejects_a_non_finite_stack(value, where):
    # a non-finite entry, mirrored where it sits off the diagonal, fails the Hermitian check
    stack = np.tile(np.eye(4, dtype=complex) / 4.0, (3, 1, 1))
    stack[1, where[0], where[1]] = stack[1, where[1], where[0]] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not Hermitian"):
            validate_densities(stack)


# smallest eigenvalues across the screen's shift (-PSD_ATOL / 2) and the rule's bound (-PSD_ATOL)
BOUNDARY_EIGMINS = sorted(
    {edge * (1.0 + d) for edge in (-0.5 * PSD_ATOL, -PSD_ATOL) for d in (-1e-3, -1e-6, 0.0, 1e-6, 1e-3)}
    | {-4.9e-11, -5.1e-11, -9.99e-11, -1.0001e-10, -1.01e-10, 0.0, -1e-16, -1e-12, -2e-10, -1e-3, -0.3}
)


def boundary_bank(rng, eigmin):
    """Q diag(eigmin, a, b, c) Q^H for a random unitary Q, with unit trace."""
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    rest = rng.dirichlet(np.ones(3)) * (1.0 - eigmin)
    return (q * np.array([eigmin, *rest])) @ q.conj().T


def check_outcome(check, stack):
    """None if ``check`` accepts the stack, returning it unchanged, else its message."""
    try:
        assert check(stack) is stack
    except ValueError as exc:
        return str(exc)
    return None


def test_validate_densities_decides_as_eigvalsh_on_every_stack():
    rng = np.random.default_rng(34)
    bank = [(eigmin, boundary_bank(rng, eigmin)) for eigmin in BOUNDARY_EIGMINS for _ in range(40)]
    ideal = resolve(ExperimentConfig(), "counts-demo", ideal=True)
    kets, _, _ = sweeps._grid(dataclasses.replace(ideal, phi_list=tuple(np.linspace(-7.0, 7.0, 97))))
    pure = ket_to_density(kets)
    good = pure[:5] * 0.9 + np.eye(4) * 0.025
    bad = [matrix for eigmin, matrix in bank if eigmin in (-0.3, -1.01e-10)][::40]
    not_hermitian = good[0].copy()
    not_hermitian[0, 1] += 0.1
    stacks = [matrix[None] for _, matrix in bank]
    stacks += [pure, pure[:1], pure[-1:], good.reshape(5, 1, 4, 4)]
    stacks += [np.concatenate([good[:i], matrix[None], good[i:]]) for i in (0, 2, 5) for matrix in bad]
    stacks += [np.stack([matrix for eigmin, matrix in bank if eigmin >= -1.0001e-10])]
    stacks += [np.concatenate([good, matrix[None], good[:2] * 2.0]) for matrix in (*bad, not_hermitian)]
    stacks += [np.concatenate([good, bad[0][None], not_hermitian[None]])]
    rejected = 0
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert states._psd_screen(pure).all()  # pure states take the screen alone
        for stack in stacks:
            expected = check_outcome(validate_densities_oracle, stack)
            assert check_outcome(validate_densities, stack) == expected
            rejected += expected is not None
    # both sides of each edge are in the bank: far enough below -PSD_ATOL fails, above passes
    assert 0 < rejected < len(stacks)
    for eigmin, matrix in bank:
        if eigmin <= -1.0001e-10 or eigmin >= -9.99e-11:
            assert (check_outcome(validate_densities, matrix[None]) is None) == (eigmin >= -9.99e-11)


def test_fidelity_pure_basics():
    bell = normalize([0.0, 1.0, 1.0, 0.0])
    rho = DensityMatrix4(ket_to_density(bell))
    assert fidelity_pure(rho.matrix[None], bell[None])[0] == pytest.approx(1.0, abs=1e-12)
    other = normalize([0.0, 1.0, -1.0, 0.0])
    assert fidelity_pure(rho.matrix[None], other[None])[0] == pytest.approx(0.0, abs=1e-12)
    mixed = DensityMatrix4(np.eye(4, dtype=complex) / 4.0)
    assert fidelity_pure(mixed.matrix[None], bell[None])[0] == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ValueError):
        fidelity_pure(mixed.matrix[None], np.array([[2.0, 0.0, 0.0, 0.0]]))


def test_fidelity_pure_reads_a_stack_and_rejects_nan():
    bell = normalize([0.0, 1.0, 1.0, 0.0])
    other = normalize([0.0, 1.0, -1.0, 0.0])
    rhos = np.stack([ket_to_density(bell), np.eye(4, dtype=complex) / 4.0])
    got = fidelity_pure(rhos, np.stack([bell, other]))
    assert got.dtype == np.float64 and got.shape == (2,)
    assert got.tolist() == pytest.approx([1.0, 0.25], abs=1e-12)
    # a NaN matrix gave a NaN fidelity, and a NaN ket passed the unit-norm check
    nan_rho = rhos.copy()
    nan_rho[1, 0, 0] = math.nan
    with pytest.raises(ValueError, match=r"^fidelity nan is outside \[0, 1\] beyond tolerance$"):
        fidelity_pure(nan_rho, np.stack([bell, other]))
    with pytest.raises(ValueError, match="^kets must have unit norm; rescale them to norm 1 first$"):
        fidelity_pure(rhos, np.stack([bell, np.full(4, math.nan)]))
    with pytest.raises(ValueError, match=r"takes \(N, 4, 4\) matrices and \(N, 4\) kets"):
        fidelity_pure(rhos, bell[None])


def test_fidelity_of_noisy_bell_matches_contraction_oracle():
    # 0.977 on the Bell state plus the even split of the two noise floors
    bell = normalize([0.0, 1.0, 1.0, 0.0])
    white = np.eye(4, dtype=complex) / 4.0
    dephased = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
    noisy = 0.977 * ket_to_density(bell) + 0.023 * (0.5 * white + 0.5 * dephased)
    expected = fidelity_oracle(noisy, bell)
    assert expected == pytest.approx(0.985625, abs=1e-12)
    got = fidelity_pure(DensityMatrix4(noisy).matrix[None], bell[None])[0]
    assert got == pytest.approx(expected, abs=1e-12)
