"""Tests of the benchmark's own logic.  Run: python -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from checks import Expect  # noqa: E402
from tracing import Span  # noqa: E402


def span(start, end, parent=-1, name="cli.main"):
    return Span(name, start, end, parent, 0, False)


def test_self_time_subtracts_nested_children():
    spans = [
        span(0.0, 10.0),
        span(1.0, 4.0, parent=0),
        span(2.0, 3.0, parent=1),
        span(5.0, 7.0, parent=0),
    ]
    assert stats.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [span(0.0, 10.0), span(1.0, 4.0, parent=0), span(3.0, 6.0, parent=0), span(9.0, 12.0, parent=0)]
    assert stats.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


@pytest.mark.parametrize(
    "count, percentile",
    [(5, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_ladder_percentile_with_ten_samples_beyond(count, percentile):
    assert stats.tail_percentile(count) == percentile


def test_nearest_rank():
    values = list(range(100, 0, -1))
    assert stats.nearest_rank(values, 90.0) == 90
    assert stats.nearest_rank(values, 50.0) == 50
    assert stats.nearest_rank([3.0], 99.9) == 3.0


# -- output checker -----------------------------------------------------------

PHASE = Expect("phase", betas=(math.radians(30.0), math.radians(45.0)), phis=(0.0, 1.0, math.pi))
TOMOGRAPHY = Expect("tomography", betas=(math.radians(45.0),), phis=(0.0, 1.0, 2.0))
COUNTS = Expect("counts", betas=(math.radians(45.0),), xs=(0.0, 1e-3, 2e-3))


def program_csv(tmp_path, subcommand, expect, experiment):
    from sloccsim.cli import main

    sweep = [f"beta_list = {', '.join(map(repr, expect.betas))}"]
    sweep.append(f"phi_list = {', '.join(map(repr, expect.phis))}" if expect.phis else
                 f"x_list = {', '.join(map(repr, expect.xs))}")
    config = tmp_path / "run.ini"
    config.write_text(f"[experiment]\nseed = 5\n{experiment}\n[sweep]\n" + "\n".join(sweep) + "\n")
    out = tmp_path / "out.csv"
    assert main([subcommand, "--config", str(config), "--out", str(out)]) == 0
    return out.read_text()


def replace_cell(text, row, column, value):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.fixture
def phase_csv(tmp_path):
    return program_csv(tmp_path, "phase-sweep", PHASE, "shots = 2000\nbootstrap = 200")


def test_checker_accepts_program_output(phase_csv, tmp_path):
    assert checks.check_csv(phase_csv, PHASE) == []
    assert checks.check_csv(program_csv(tmp_path, "tomography-demo", TOMOGRAPHY, "shots = 2000"), TOMOGRAPHY) == []
    assert checks.check_csv(program_csv(tmp_path, "counts-demo", COUNTS, "sampling = poisson"), COUNTS) == []


def test_checker_rejects_tampered_zz_ideal(phase_csv):
    value = float(phase_csv.splitlines()[2].split(",")[3])
    tampered = replace_cell(phase_csv, 2, 3, format(value + 1e-9, ".12g"))
    assert any("zz_ideal" in p for p in checks.check_csv(tampered, PHASE))


def test_checker_rejects_missing_row_and_wrong_header(phase_csv):
    lines = phase_csv.splitlines()
    assert checks.check_csv("\n".join(lines[:-1]) + "\n", PHASE) == [f"{len(lines) - 2} rows, expected 6"]
    assert checks.check_csv(phase_csv.replace("phi_hat", "phi_est", 1), PHASE)[0].startswith("header")


def test_checker_rejects_sampled_value_far_outside_its_error_bar(phase_csv):
    assert checks.check_csv(replace_cell(phase_csv, 1, 5, "0.99"), PHASE)


def test_checker_rejects_unphysical_reconstruction(tmp_path):
    text = program_csv(tmp_path, "tomography-demo", TOMOGRAPHY, "shots = 2000")
    header = text.splitlines()[0].split(",")
    non_hermitian = replace_cell(text, 1, header.index("rho_im_01"), "0.25")
    assert any("Hermitian" in p for p in checks.check_csv(non_hermitian, TOMOGRAPHY))
    bad_fit = replace_cell(text, 2, header.index("visibility_fit"), "0.9")
    assert any("visibility_fit" in p for p in checks.check_csv(bad_fit, TOMOGRAPHY))


def test_checker_rejects_counts_that_do_not_sum(tmp_path):
    text = program_csv(tmp_path, "counts-demo", COUNTS, "sampling = poisson")
    total = int(text.splitlines()[3].split(",")[6])
    assert any("sum" in p for p in checks.check_csv(replace_cell(text, 3, 6, str(total + 1)), COUNTS))


# -- tracing ------------------------------------------------------------------


def traced_phase_sweep(tmp_path, config):
    from sloccsim import cli

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        code = tracer.wrap("cli.main", cli.main)(["phase-sweep", "--config", config, "--out", str(tmp_path / "o.csv")])
    finally:
        uninstall()
    assert code == 0
    return tracer


def test_tracer_records_layer_spans_and_uninstalls(tmp_path):
    from sloccsim import measurement, states, sweeps

    originals = (sweeps.prepare_lr, measurement.bootstrap_zz, states.DensityMatrix4.__post_init__)
    config = tmp_path / "run.ini"
    config.write_text("[experiment]\nshots = 500\nbootstrap = 100\n[sweep]\nbeta_list = 45deg\nphi_list = 0, 1, 2\n")
    tracer = traced_phase_sweep(tmp_path, str(config))
    assert (sweeps.prepare_lr, measurement.bootstrap_zz, states.DensityMatrix4.__post_init__) == originals

    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0].parent == -1
    assert names.count("states.DensityMatrix4") == 9
    assert tracer.tallies["measurement.bootstrap_zz"] == 300
    boot = next(s for s in tracer.spans if s.name == "measurement.bootstrap_zz")
    assert tracer.spans[boot.parent].name == "measurement.estimate_phase"

    ops_seconds = tracer.spans[0].end - tracer.spans[0].start
    metrics = tracing.layer_metrics(tracer.spans, tracer.tallies, 3, 1, ops_seconds)
    assert metrics["states.DensityMatrix4.calls_per_row"][0] == 3.0
    shares = sum(metrics[f"{m}.self_share"][0] for m in tracing.LAYERS)
    assert shares + metrics["trace.unattributed_share"][0] == pytest.approx(1.0)

    again = traced_phase_sweep(tmp_path, str(config))
    assert tracing.count_signature(again.spans, again.tallies, 3) == tracing.count_signature(
        tracer.spans, tracer.tallies, 3
    )


# -- the benchmark end to end -------------------------------------------------


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_reports_every_declared_metric(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    done = bench(ROOT, "--workload", "grid-mix", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = bench(tmp_path, "--workload", "grid-mix", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
