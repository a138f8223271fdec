"""The stacked pipeline against the per-point references, bit for bit.

Golden digests pin whole CSV files; these properties pin each stacked stage
(state build, noise mix, rotation and readout, tomography probabilities and
linear inversion) against the per-point arithmetic it replaced, over drawn
inputs, so a stage that rounds differently fails here by name.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sloccsim import (
    DensityMatrix4,
    NoiseModel,
    PreparationSettings,
    TomographyData,
    reconstruct,
)
from sloccsim.measurement import readout, rotate
from sloccsim.mixture import MixtureSpec, mixed_state, mixed_states
from sloccsim.noise import noisy_states
from sloccsim.slocc import lr_kets
from sloccsim.states import pure_densities, validate_densities
from sloccsim.tomography import _project_physical, all_settings, invert, sector_probabilities

from oracles import (
    linear_inversion_oracle,
    noisy_chain_oracle,
    pure_density_oracle,
    setting_probabilities_oracle,
)

unit = st.floats(0.0, 1.0)
betas = st.floats(0.0, math.pi / 2)
phis = st.floats(-20.0, 20.0)
points = st.lists(st.tuples(betas, phis), min_size=1, max_size=12)


def noisy_stack(grid, visibility, white):
    model = NoiseModel(visibility=visibility, white_weight=white, dephasing_weight=1.0 - white)
    kets = lr_kets([PreparationSettings(beta, phi) for beta, phi in grid])
    return noisy_states(pure_densities(kets), model)


# A tiny negative phase reduces modulo 2*pi to exactly 2*pi under a bare %;
# the canonical reduction maps it to 0 wherever a phase is stored.
@settings(max_examples=60, deadline=None)
@given(grid=points, visibility=unit, white=unit)
@example(grid=[(1.0, -1e-300), (math.pi / 2, 2 * math.pi)], visibility=1.0, white=0.5)
def test_stacked_states_and_probabilities_match_per_point_chain(grid, visibility, white):
    states = noisy_stack(grid, visibility, white)
    probs = readout(rotate(states))
    for (beta, phi), state, row in zip(grid, states, probs):
        ref_state, ref_probs = noisy_chain_oracle(beta, phi, visibility, white)
        assert np.array_equal(state, ref_state)
        assert np.array_equal(row, ref_probs)


@settings(max_examples=40, deadline=None)
@given(weights=st.lists(unit, min_size=1, max_size=8), phi1=phis, phi2=phis, beta=betas)
@example(weights=[0.0, 0.5], phi1=0.0, phi2=-4.2394487025754455e-230, beta=1.0)
def test_stacked_mixtures_match_single_mixtures(weights, phi1, phi2, beta):
    specs = [MixtureSpec(w, phi1, phi2, beta) for w in weights]
    for spec, blend in zip(specs, mixed_states(specs)):
        rho1 = pure_density_oracle(spec.beta, spec.phi1)
        rho2 = pure_density_oracle(spec.beta, spec.phi2)
        assert np.array_equal(blend, spec.weight * rho1 + (1.0 - spec.weight) * rho2)
        assert np.array_equal(blend, mixed_state(spec).matrix)


@settings(max_examples=40, deadline=None)
@given(grid=points, visibility=unit, white=unit)
def test_sector_probabilities_match_kron_loop(grid, visibility, white):
    states = noisy_stack(grid, visibility, white)
    probs = sector_probabilities(states)
    for state, table in zip(states, probs):
        for setting, row in zip(all_settings(), table):
            ref = setting_probabilities_oracle(state, setting.left, setting.right)
            assert np.array_equal(row, ref)


count_tables = st.lists(
    st.lists(st.lists(st.integers(0, 60), min_size=4, max_size=4), min_size=9, max_size=9),
    min_size=1,
    max_size=6,
).map(lambda tables: np.array(tables, dtype=np.float64) + np.array([1.0, 0.0, 0.0, 0.0]))


@settings(max_examples=60, deadline=None)
@given(tables=count_tables)
def test_linear_inversion_matches_dict_accumulation(tables):
    for table, rho_hat in zip(tables, invert(tables)):
        expected = _project_physical(linear_inversion_oracle(table)).matrix
        assert np.array_equal(rho_hat.matrix, expected)
        data = TomographyData(dict(zip(all_settings(), table)))
        assert np.array_equal(reconstruct(data).matrix, expected)


def _non_hermitian(m):
    m = m.copy()
    m[0, 1] += 1e-6
    return m


def _bad_trace(m):
    return m * 1.001


def _negative_eigenvalue(m):
    return 1.5 * m - 0.125 * np.eye(4)


@pytest.mark.parametrize("spoil", [_non_hermitian, _bad_trace, _negative_eigenvalue])
@settings(max_examples=20, deadline=None)
@given(grid=st.lists(st.tuples(betas, phis), min_size=2, max_size=8), data=st.data())
def test_stack_with_one_bad_matrix_raises_density_matrix_message(spoil, grid, data):
    stack = noisy_stack(grid, 0.9, 0.5)
    index = data.draw(st.integers(0, len(grid) - 1))
    stack[index] = spoil(noisy_stack([grid[index]], 1.0, 0.5)[0])
    with pytest.raises(ValueError) as single:
        DensityMatrix4(stack[index])
    with pytest.raises(ValueError) as stacked:
        validate_densities(stack)
    assert str(stacked.value) == str(single.value)
