"""The error bars are calibrated 1-sigma intervals, checked at pinned seeds.

A well-calibrated 1-sigma bar covers the true value in 68.27% of rows; the
observed rate must lie within a binomial 4-sigma band of that.  The phase
check uses the benchmark's phase grid (17 betas x 37 phases, 5000 shots,
visibility 0.977) on its interior rows, 0.3 < phi < pi - 0.3.  Near phi = 0
and pi the Fisher information vanishes and the arccos clamps, so the edge
rows under-cover; they are left out here rather than pinned as expected.
"""

import math
import statistics

from sloccsim.config import ExperimentConfig, resolve
from sloccsim.sweeps import MIXTURE_HEADER, PHASE_SWEEP_HEADER, run_scenario

NOMINAL = 0.6827
BETAS = [math.radians(5 * k) for k in range(1, 18)]
PHIS = [k * math.pi / 36 for k in range(37)]
SHOTS = 5000
VISIBILITY = 0.977


def assert_covers(hits, rows):
    band = 4.0 * math.sqrt(NOMINAL * (1.0 - NOMINAL) / rows)
    assert abs(hits / rows - NOMINAL) <= band, f"coverage {hits / rows:.4f} over {rows} rows"


def test_phase_error_bars_cover_and_match_the_cramer_rao_bound():
    col = {name: i for i, name in enumerate(PHASE_SWEEP_HEADER)}
    config = ExperimentConfig(shots=SHOTS, visibility=VISIBILITY, beta_list=BETAS, phi_list=PHIS)
    hits, ratios = 0, []
    for seed in range(8):
        for row in run_scenario(resolve(config, "phase-sweep", seed=seed))[1]:
            phi = row[col["phi_rad"]]
            if not 0.3 < phi < math.pi - 0.3:
                continue
            phi_err = row[col["phi_err"]]
            hits += abs(row[col["phi_hat"]] - phi) <= phi_err
            # Fisher information of one pair under the cos readout, with a = V sin(2 beta)
            a = VISIBILITY * math.sin(2.0 * math.radians(row[col["beta_deg"]]))
            fisher = a * a * math.sin(phi) ** 2 / (1.0 - a * a * math.cos(phi) ** 2)
            ratios.append(phi_err * math.sqrt(SHOTS * fisher))
    assert len(ratios) == 3944
    assert_covers(hits, len(ratios))
    assert abs(statistics.median(ratios) - 1.0) <= 0.02


def test_weight_error_bars_cover():
    col = {name: i for i, name in enumerate(MIXTURE_HEADER)}
    hits = rows = 0
    for seed in range(40):
        for row in run_scenario(resolve(ExperimentConfig(), "mixture-sweep", seed=seed))[1]:
            rows += 1
            hits += abs(row[col["p_hat_raw"]] - row[col["p"]]) <= row[col["p_err"]]
    assert rows == 440
    assert_covers(hits, rows)
