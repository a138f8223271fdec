"""Acceptance gate: ten end-to-end checks with pinned tolerances.

Each test is one criterion; `pytest -v` therefore prints one pass/fail line
per criterion.  Statistical checks pin both the seed and the acceptance
window, so a pass here is reproducible bit for bit.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from sloccsim import (
    DensityMatrix4,
    NoiseModel,
    PlateGeometry,
    PreparationSettings,
    estimate_p,
    estimate_phase,
    extract_params,
    fidelity_pure,
    fit_noise,
    ket_to_density,
    mixed_state,
    noisy_state,
    outcome_probs,
    phase_from_displacement,
    prepare_lr,
    reconstruct,
    rotate_density,
    sample_counts,
    setting_probabilities,
    simulate_tomography,
)
from sloccsim.cli import main as cli_main
from sloccsim.noise import DEPHASED, WHITE_NOISE

from oracles import labelled_bracket, labelled_single, random_real_unit_pair
from physics import (
    DetectionMode,
    Pseudospin,
    Region,
    SingleParticleState,
    StatisticsParameter,
    beta_indistinguishability,
    deform,
    displacement_from_phase,
    expectation_zz,
    joint_amplitude,
    project_slocc,
)

STAT_SEED = 20260819  # pinned; the statistical windows below were sized for it


def pipeline_zz(beta: float, phi: float) -> float:
    pair = deform(
        math.sqrt(0.5), math.sqrt(0.5), math.sin(beta), math.cos(beta),
        StatisticsParameter(phi),
    )
    rho = rotate_density(ket_to_density(project_slocc(pair).ket))
    return expectation_zz(rho)


def test_criterion_01_correlation_identity_on_grid():
    start = time.perf_counter()
    worst = 0.0
    for beta_deg in (10.0, 20.0, 30.0, 45.0):
        beta = math.radians(beta_deg)
        for k in range(25):
            phi = k * math.pi / 12.0
            worst = max(worst, abs(pipeline_zz(beta, phi) - math.sin(2 * beta) * math.cos(phi)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"criterion 01 FAIL: max deviation {worst:.3e}"
    assert elapsed < 1.0, f"criterion 01 FAIL: {elapsed:.2f}s exceeds 1s"
    print(f"criterion 01 PASS: max deviation {worst:.3e} <= 1e-12 in {elapsed:.2f}s")


def test_criterion_02_general_amplitude_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(STAT_SEED)
    worst = 0.0
    for _ in range(1000):
        l, r = random_real_unit_pair(rng)
        lp, rp = random_real_unit_pair(rng)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        weight = (l * rp) ** 2 + (r * lp) ** 2
        if weight <= 1e-9:
            continue
        pair = deform(l, r, lp, rp, StatisticsParameter(phi))
        zz = expectation_zz(rotate_density(ket_to_density(project_slocc(pair).ket)))
        expected = 2.0 * l * rp * r * lp * math.cos(phi) / weight
        worst = max(worst, abs(zz - expected))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"criterion 02 FAIL: max deviation {worst:.3e}"
    assert elapsed < 1.0, f"criterion 02 FAIL: {elapsed:.2f}s exceeds 1s"
    print(f"criterion 02 PASS: max deviation {worst:.3e} <= 1e-12 in {elapsed:.2f}s")


def test_criterion_03_amplitude_rule_vs_product_space_oracle():
    rng = np.random.default_rng(STAT_SEED)
    outcomes = [
        (DetectionMode(Region.LEFT, sl), DetectionMode(Region.RIGHT, sr), nl, nr)
        for sl, nl in ((Pseudospin.UP, "up"), (Pseudospin.DOWN, "down"))
        for sr, nr in ((Pseudospin.UP, "up"), (Pseudospin.DOWN, "down"))
    ]
    worst = 0.0
    for _ in range(1000):
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        l, r = vec[0], vec[1]
        lp, rp = vec[2], vec[3]
        n1 = math.sqrt(abs(l) ** 2 + abs(r) ** 2)
        n2 = math.sqrt(abs(lp) ** 2 + abs(rp) ** 2)
        l, r, lp, rp = l / n1, r / n1, lp / n2, rp / n2
        first = SingleParticleState(l, r, Pseudospin.UP)
        second = SingleParticleState(lp, rp, Pseudospin.DOWN)
        for eta in (StatisticsParameter.bosonic(), StatisticsParameter.fermionic()):
            for mode_l, mode_r, name_l, name_r in outcomes:
                got = joint_amplitude(mode_l, mode_r, first, second, eta)
                want = labelled_bracket(
                    name_l,
                    name_r,
                    labelled_single(l, r, "up"),
                    labelled_single(lp, rp, "down"),
                    eta.eta,
                )
                worst = max(worst, abs(got - want))
    assert worst <= 1e-12, f"criterion 03 FAIL: max deviation {worst:.3e}"
    print(f"criterion 03 PASS: max deviation {worst:.3e} <= 1e-12")


def test_criterion_04_noise_floor_invisibility_and_scaling():
    floor_worst = 0.0
    for floor in (WHITE_NOISE, DEPHASED):
        zz = expectation_zz(rotate_density(DensityMatrix4(floor).matrix))
        floor_worst = max(floor_worst, abs(zz))
    assert floor_worst <= 1e-14, f"criterion 04 FAIL: floor correlation {floor_worst:.3e}"

    rng = np.random.default_rng(STAT_SEED)
    scale_worst = 0.0
    for _ in range(1000):
        beta = rng.uniform(0.0, math.pi / 2)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        white = rng.uniform(0.0, 1.0)
        model = NoiseModel(
            visibility=rng.uniform(0.0, 1.0),
            white_weight=white,
            dephasing_weight=1.0 - white,
        )
        ideal = ket_to_density(prepare_lr(PreparationSettings(beta, phi)))
        zz_noisy = expectation_zz(rotate_density(noisy_state(ideal, model)))
        zz_ideal = expectation_zz(rotate_density(ideal))
        scale_worst = max(scale_worst, abs(zz_noisy - model.visibility * zz_ideal))
    assert scale_worst <= 1e-12, f"criterion 04 FAIL: scaling residual {scale_worst:.3e}"
    print(
        f"criterion 04 PASS: floor correlation {floor_worst:.3e} <= 1e-14, "
        f"scaling residual {scale_worst:.3e} <= 1e-12"
    )


def test_criterion_05_phase_estimation_under_noise():
    start = time.perf_counter()
    model = NoiseModel()  # visibility 0.977
    beta = math.pi / 4
    labels = ("boson", "fermion")
    tallies = []
    for phi in (0.0, math.pi):
        ideal = ket_to_density(prepare_lr(PreparationSettings(beta, phi)))
        probs = outcome_probs(rotate_density(noisy_state(ideal, model)))
        tallies.append(sample_counts(probs[None], 5000, [np.random.default_rng(STAT_SEED)])[0].tolist())
    est = estimate_phase(tallies, [beta, beta], model.visibility)
    # one (phi_hat, sigma) pair per label, as Python floats
    results = {
        label: SimpleNamespace(phi_hat=phi_hat, sigma=sigma)
        for label, phi_hat, sigma in zip(labels, est.phi_hat.tolist(), est.sigma.tolist())
    }
    elapsed = time.perf_counter() - start
    boson, fermion = results["boson"], results["fermion"]
    assert abs(boson.phi_hat) <= 0.15, f"criterion 05 FAIL: boson phase {boson.phi_hat:.4f}"
    assert abs(fermion.phi_hat - math.pi) <= 0.15, (
        f"criterion 05 FAIL: fermion phase {fermion.phi_hat:.4f}"
    )
    for label, est in results.items():
        assert 0.02 <= est.sigma <= 0.10, (
            f"criterion 05 FAIL: {label} spread {est.sigma:.4f} outside [0.02, 0.10]"
        )
    assert elapsed < 5.0, f"criterion 05 FAIL: {elapsed:.2f}s exceeds 5s"
    print(
        f"criterion 05 PASS: boson {boson.phi_hat:.4f}+-{boson.sigma:.4f}, "
        f"fermion {fermion.phi_hat:.4f}+-{fermion.sigma:.4f} in {elapsed:.2f}s"
    )


def test_criterion_06_plate_monotonicity_and_round_trip():
    geom = PlateGeometry()
    xs = np.arange(0.5e-3, 40.0e-3 + 1e-12, 0.5e-3)
    phases = np.array([phase_from_displacement(x, geom).unwrapped for x in xs])
    assert np.all(np.diff(phases) > 0.0), "criterion 06 FAIL: phase not strictly increasing"
    assert phase_from_displacement(0.0, geom).unwrapped == 0.0

    rng = np.random.default_rng(STAT_SEED)
    worst = 0.0
    for phi in rng.uniform(0.0, 4.0 * math.pi, size=100):
        back = phase_from_displacement(displacement_from_phase(phi, geom), geom).unwrapped
        worst = max(worst, abs(back - phi))
    assert worst <= 1e-9, f"criterion 06 FAIL: round-trip error {worst:.3e}"
    print(f"criterion 06 PASS: monotone on (0, 40mm], round-trip error {worst:.3e} <= 1e-9")


def test_criterion_07_mixture_weight_recovery():
    start = time.perf_counter()
    beta = math.pi / 4
    windows = {(0.0, math.pi): 0.02, (0.0, math.pi / 2): 0.04}
    worst_by_pair = {}
    for pair_index, ((phi1, phi2), window) in enumerate(windows.items()):
        worst = 0.0
        for step in range(11):
            p = step / 10.0
            probs = outcome_probs(rotate_density(mixed_state([p], phi1, phi2, beta)))
            rng = np.random.default_rng(STAT_SEED + 100 * pair_index + step)
            counts = sample_counts(probs, 100_000, [rng])[0].tolist()
            est = estimate_p([counts], phi1, phi2, beta, 1.0)
            worst = max(worst, abs(est.p_hat[0] - p))
        worst_by_pair[(phi1, phi2)] = worst
        assert worst <= window, (
            f"criterion 07 FAIL: pair ({phi1:.2f}, {phi2:.2f}) "
            f"max error {worst:.4f} > {window}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 07 FAIL: {elapsed:.2f}s exceeds 10s"
    print(
        "criterion 07 PASS: max weight errors "
        + ", ".join(f"{k}: {v:.4f}" for k, v in worst_by_pair.items())
        + f" in {elapsed:.2f}s"
    )


def test_criterion_08_tomography_inversion_fidelity_and_noise_fit():
    rng = np.random.default_rng(STAT_SEED)
    worst = 0.0
    for _ in range(20):
        weights = rng.dirichlet(np.ones(3))
        rho = np.zeros((4, 4), dtype=np.complex128)
        for w in weights:
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            rho += w * np.outer(v, v.conj())
        state = DensityMatrix4(rho)
        rebuilt = reconstruct(setting_probabilities(state.matrix)[None])[0]
        worst = max(worst, float(np.max(np.abs(rebuilt - state.matrix))))
    assert worst <= 1e-12, f"criterion 08 FAIL: exact inversion error {worst:.3e}"

    bell = PreparationSettings(math.pi / 4, 0.0)
    probs = setting_probabilities(ket_to_density(prepare_lr(bell))[None])
    data = simulate_tomography(probs, 100_000, [np.random.default_rng(STAT_SEED)])
    fid = fidelity_pure(reconstruct(data), prepare_lr(bell)[None])[0]
    assert fid >= 0.999, f"criterion 08 FAIL: sampled fidelity {fid:.6f} < 0.999"

    model = NoiseModel()
    targets = []
    for k in range(8):
        settings = PreparationSettings(math.pi / 4, k * math.pi / 7.0)
        noisy = noisy_state(ket_to_density(prepare_lr(settings)), model)
        rng = np.random.default_rng(STAT_SEED + k)
        counts = simulate_tomography(setting_probabilities(noisy[None]), 100_000, [rng])
        targets.append(reconstruct(counts)[0])
    targets = np.stack(targets)
    fitted = fit_noise(targets, extract_params(targets).kets)
    fit_error = abs(fitted.visibility - model.visibility)
    assert fit_error <= 5e-3, f"criterion 08 FAIL: visibility error {fit_error:.2e}"
    print(
        f"criterion 08 PASS: inversion {worst:.3e} <= 1e-12, fidelity {fid:.6f} >= 0.999, "
        f"visibility error {fit_error:.2e} <= 5e-3"
    )


def test_criterion_09_indistinguishability_and_correlation_band():
    assert beta_indistinguishability(math.pi / 4) == 1.0, "criterion 09 FAIL: I(45deg) != 1"
    assert beta_indistinguishability(0.0) == 0.0, "criterion 09 FAIL: I(0) != 0"
    values = [beta_indistinguishability(math.radians(b)) for b in range(45, -1, -1)]
    assert all(a > b for a, b in zip(values, values[1:])), (
        "criterion 09 FAIL: indistinguishability not strictly decreasing"
    )

    band_worst = 0.0
    for beta_deg in range(5, 90, 5):
        beta = math.radians(beta_deg)
        envelope = max(
            abs(pipeline_zz(beta, k * math.pi / 12.0)) for k in range(25)
        )
        band_worst = max(band_worst, abs(envelope - math.sin(2 * beta)))
    assert band_worst <= 1e-12, f"criterion 09 FAIL: band mismatch {band_worst:.3e}"
    print(f"criterion 09 PASS: endpoints exact, band mismatch {band_worst:.3e} <= 1e-12")


CLI_CONFIGS = {
    "phase-sweep": (
        "[experiment]\nshots = 400\nbootstrap = 100\n"
        "[sweep]\nbeta_list = 45deg\nphi_list = 0, 90deg, 180deg\n"
    ),
    "beta-sweep": (
        "[experiment]\nshots = 400\nbootstrap = 100\n"
        "[sweep]\nbeta_list = 30deg, 45deg\nphi_list = 0\n"
    ),
    "mixture-sweep": (
        "[experiment]\nshots = 400\nbootstrap = 100\n[sweep]\np_list = 0, 0.5, 1\n"
    ),
    "calibrate-plate": "[sweep]\nx_list = 0mm, 1mm, 2mm, 3mm\n",
    "counts-demo": "[experiment]\nshots = 400\n",
    "tomography-demo": "[experiment]\nshots = 300\n[sweep]\nphi_list = 0, 90deg\n",
}


def test_criterion_10_byte_identical_csv_per_subcommand(tmp_path):
    for command, body in CLI_CONFIGS.items():
        config = tmp_path / f"{command}.ini"
        config.write_text(body, encoding="utf-8")
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{command}-{run}.csv"
            code = cli_main(
                [command, "--config", str(config), "--seed", "11", "--out", str(out)]
            )
            assert code == 0, f"criterion 10 FAIL: {command} exited {code}"
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], (
            f"criterion 10 FAIL: {command} output differs between identical runs"
        )
        assert len(outputs[0]) > 0
    print("criterion 10 PASS: all six subcommands byte-identical across repeat runs")
