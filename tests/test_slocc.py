import math
from unittest import mock

import numpy as np
import pytest

from sloccsim import JointKet, PreparationSettings, prepare_lr, sweeps
from sloccsim.config import ExperimentConfig, resolve
from sloccsim.slocc import lr_ket_blocks

from physics import (
    DegenerateStateError,
    PostSelectionError,
    StatisticsParameter,
    beta_indistinguishability,
    deform,
    indistinguishability,
    project_slocc,
)

SQ2 = math.sqrt(0.5)


def test_deform_renormalises_small_defects():
    off = SQ2 * (1.0 + 4e-10)
    pair = deform(off, off, 1.0, 0.0, StatisticsParameter.bosonic())
    assert abs(abs(pair.l) ** 2 + abs(pair.r) ** 2 - 1.0) <= 1e-12


def test_deform_rejects_bad_pairs():
    with pytest.raises(DegenerateStateError):
        deform(0.0, 0.0, 1.0, 0.0, StatisticsParameter.bosonic())
    with pytest.raises(ValueError):
        deform(1.0, 1.0, 1.0, 0.0, StatisticsParameter.bosonic())


def test_project_slocc_maximally_entangled():
    pair = deform(SQ2, SQ2, SQ2, SQ2, StatisticsParameter.bosonic())
    result = project_slocc(pair)
    bell = JointKet([0.0, SQ2, SQ2, 0.0])
    assert result.ket.agrees_up_to_phase(bell)
    assert result.p_lr == pytest.approx(0.5, abs=1e-12)
    assert result.indist == pytest.approx(1.0, abs=1e-12)


def test_project_slocc_distinguishable_pair():
    pair = deform(1.0, 0.0, 0.0, 1.0, StatisticsParameter(1.3))
    result = project_slocc(pair)
    assert result.ket.agrees_up_to_phase(JointKet([0.0, 1.0, 0.0, 0.0]))
    assert result.p_lr == pytest.approx(1.0, abs=1e-12)
    assert result.indist == pytest.approx(0.0, abs=1e-12)


def test_project_slocc_fermionic_tilted():
    c20, s20 = math.cos(math.radians(20)), math.sin(math.radians(20))
    pair = deform(SQ2, SQ2, s20, c20, StatisticsParameter.fermionic())
    result = project_slocc(pair)
    assert result.p_lr == pytest.approx(0.5, abs=1e-12)
    expected = JointKet([0.0, c20, -s20, 0.0])
    assert result.ket.agrees_up_to_phase(expected)
    # componentwise too: the pipeline carries no extra global phase here
    assert np.allclose(result.ket.amps, expected.amps, atol=1e-12)


def test_project_slocc_kept_components_only():
    rng = np.random.default_rng(8)
    for _ in range(50):
        a1, a2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        pair = deform(
            math.cos(a1), math.sin(a1), math.cos(a2), math.sin(a2),
            StatisticsParameter(rng.uniform(0.0, 2.0 * math.pi)),
        )
        ket = project_slocc(pair).ket
        assert abs(ket.amps[0]) <= 1e-12
        assert abs(ket.amps[3]) <= 1e-12


def test_post_selection_impossible():
    pair = deform(1.0, 0.0, 1.0, 0.0, StatisticsParameter.bosonic())
    with pytest.raises(PostSelectionError):
        project_slocc(pair)
    with pytest.raises(PostSelectionError):
        indistinguishability(pair)


def test_prepare_lr_examples():
    bell = prepare_lr(PreparationSettings(math.pi / 4, 0.0))
    assert np.allclose(bell.amps, [0.0, SQ2, SQ2, 0.0], atol=1e-12)
    collapsed = prepare_lr(PreparationSettings(0.0, 0.4))
    assert np.allclose(collapsed.amps, [0.0, 1.0, 0.0, 0.0], atol=1e-12)
    quarter = prepare_lr(PreparationSettings(math.pi / 4, math.pi / 2))
    assert np.allclose(quarter.amps, [0.0, SQ2, 1j * SQ2, 0.0], atol=1e-12)


def grid_kets(scenario):
    """The (beta, phi) rows of a default grid and the kets ``sweeps._grid`` builds for them.

    The kets come from the grid's one ``lr_ket_blocks`` call, with one block
    of every phase per beta, as the CLI runs it.
    """
    cfg = resolve(ExperimentConfig(), scenario)
    calls = []

    def recorded(blocks):
        calls.append((blocks, lr_ket_blocks(blocks)))
        return calls[-1][1]

    with mock.patch.object(sweeps, "lr_ket_blocks", recorded):
        grid, _ = sweeps._grid(cfg)
    ((blocks, kets),) = calls
    assert [len(phases) for _, phases in blocks] == [len(cfg.phi_list)] * len(cfg.beta_list)
    assert len(cfg.phi_list) > 1
    return list(grid), kets


def test_prepare_lr_equals_pipeline():
    cases = [
        ((beta, phi), prepare_lr(PreparationSettings(beta, phi)))
        for beta in np.linspace(0.0, math.pi / 2, 7)
        for phi in np.linspace(0.0, 2.0 * math.pi, 9)
    ]
    for scenario in ("phase-sweep", "beta-sweep"):
        grid, kets = grid_kets(scenario)
        cases += [(point, JointKet(ket)) for point, ket in zip(grid, kets, strict=True)]
    for (beta, phi), direct in cases:
        pair = deform(SQ2, SQ2, math.sin(beta), math.cos(beta), StatisticsParameter(phi))
        result = project_slocc(pair)
        assert result.ket.agrees_up_to_phase(direct, atol=1e-12)
        assert result.p_lr == pytest.approx(0.5, abs=1e-12)


def test_preparation_settings_validation():
    with pytest.raises(ValueError):
        PreparationSettings(-0.1, 0.0)
    with pytest.raises(ValueError):
        PreparationSettings(math.pi / 2 + 0.01, 0.0)
    assert PreparationSettings(0.3, 2.0 * math.pi).phi == 0.0


def test_indistinguishability_endpoints_are_exact():
    assert beta_indistinguishability(math.pi / 4) == 1.0
    assert beta_indistinguishability(0.0) == 0.0
    half = deform(SQ2, SQ2, SQ2, SQ2, StatisticsParameter.bosonic())
    assert indistinguishability(half) == 1.0


def test_indistinguishability_strictly_decreasing_from_45():
    betas = [math.radians(b) for b in range(45, -1, -5)]
    values = [beta_indistinguishability(b) for b in betas]
    for higher, lower in zip(values, values[1:]):
        assert higher > lower


def test_indistinguishability_symmetric_in_path_swap():
    # exchanging which pair is "first" swaps the path weights w and 1 - w
    rng = np.random.default_rng(21)
    for _ in range(50):
        a1, a2 = rng.uniform(0.1, 1.4, size=2)
        eta = StatisticsParameter(rng.uniform(0.0, 2.0 * math.pi))
        pair = deform(math.cos(a1), math.sin(a1), math.cos(a2), math.sin(a2), eta)
        swapped = deform(math.cos(a2), math.sin(a2), math.cos(a1), math.sin(a1), eta)
        assert indistinguishability(pair) == pytest.approx(
            indistinguishability(swapped), abs=1e-12
        )


def test_indistinguishability_value_at_10_degrees():
    # frozen from the entropy of w = cos^2(10 deg)
    assert beta_indistinguishability(math.radians(10)) == pytest.approx(
        0.1951620190269681, abs=1e-12
    )
