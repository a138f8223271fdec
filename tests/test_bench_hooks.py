"""The benchmark's tracer rebinds sloccsim functions by name; each name must exist.

perfbench/tracing.py looks every (module, attribute) of its TARGETS up with
getattr, so a renamed or deleted function makes every traced run raise.  The
table is read with ast, without importing the benchmark, and so is the
subcommand-to-scenario table that perfbench/child.py times the set-up with.
Two smoke tests do import the tracer, read-only, and run small CLI
operations under it: its tallies read the estimators' results, so a changed
result type breaks traced runs only.  Two more pin the stacked stages'
contracts: one ``estimate_phase`` span per phase sweep, whose tally is the
number of clamped rows, and one ``extract_params`` span per tomography run,
whose tally is the number of low-coherence states.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
CHILD = PERFBENCH / "child.py"


def assigned_literal(path, name):
    """The literal that ``path`` assigns to the module-level ``name``, read with ast."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        names = [getattr(target, "id", None) for target in getattr(node, "targets", ())]
        if names == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} assigns no {name}")


@pytest.mark.parametrize("module, attr", assigned_literal(TRACING, "TARGETS"))
def test_tracer_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"sloccsim.{module}"), attr))


def test_bench_setup_resolves_each_subcommand_as_the_cli_does():
    from sloccsim.cli import _COMMAND_TO_SCENARIO
    from sloccsim.config import ExperimentConfig, resolve

    # child.py maps only the subcommands whose scenario has another name
    child_scenario = assigned_literal(CHILD, "_SCENARIO")
    assert set(child_scenario) <= set(_COMMAND_TO_SCENARIO)
    for command, scenario in _COMMAND_TO_SCENARIO.items():
        assert child_scenario.get(command, command) == scenario
        for ideal in (False, True):
            resolve(ExperimentConfig(), scenario=child_scenario.get(command, command), ideal=ideal)


def test_density_validation_hook_exists():
    # install() also wraps the per-matrix check that DensityMatrix4's __init__ calls
    from sloccsim.states import DensityMatrix4

    assert callable(DensityMatrix4.__dict__["__post_init__"])


def load_tracing():
    """perfbench/tracing.py as a module, with perfbench/ on sys.path only while it imports."""
    had_stats = "stats" in sys.modules  # tracing imports its sibling stats.py by that name
    sys.path.insert(0, str(TRACING.parent))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(TRACING.parent))
        if not had_stats:
            sys.modules.pop("stats", None)
    return module


TRACED_RUNS = {
    "phase-sweep": "[experiment]\nshots = 200\n[sweep]\nbeta_list = 45deg\nphi_list = 0, 1, 2\n",
    "mixture-sweep": "[experiment]\nshots = 200\n[sweep]\np_list = 0, 0.5, 1\n",
    "tomography-demo": "[experiment]\nshots = 200\n[sweep]\nphi_list = 0, 90deg\n",
    "counts-demo": "[experiment]\nshots = 200\n",
}


def test_traced_cli_runs_record_spans_and_uninstall(tmp_path, capsys):
    tracing = load_tracing()
    from sloccsim import cli
    from sloccsim.states import DensityMatrix4

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "sloccsim"]

    def bound():
        return [(m, attr, m.__dict__.get(attr)) for m in modules for _, attr in tracing.TARGETS]

    before = bound()
    post_init = DensityMatrix4.__dict__["__post_init__"]
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        for command, body in TRACED_RUNS.items():
            config = tmp_path / f"{command}.ini"
            config.write_text(body, encoding="utf-8")
            assert cli.main([command, "--config", str(config)]) == 0, capsys.readouterr().err
    finally:
        uninstall()
    capsys.readouterr()
    assert bound() == before
    assert DensityMatrix4.__dict__["__post_init__"] is post_init

    assert [s.name for s in tracer.spans if s.error] == []
    names = {s.name for s in tracer.spans}
    for name in ("measurement.estimate_phase", "mixture.estimate_p", "tomography.extract_params"):
        assert name in names
    assert set(tracer.tallies) >= {"measurement.estimate_phase", "tomography.extract_params"}
    assert all(type(count) is int for count in tracer.tallies.values())


# Fifty pairs per row near phi = 0 and pi: some rows' ratios leave [-1, 1] and clamp.
CLAMPING_SWEEP = "[experiment]\nshots = 50\n[sweep]\nbeta_list = 45deg, 30deg\nphi_list = 0, 0.1, 1, 3, 3.14159\n"


def test_traced_phase_sweep_estimates_in_one_span_that_tallies_the_clamped_rows(tmp_path, capsys):
    tracing = load_tracing()
    from oracles import estimate_phase_oracle
    from sloccsim import cli, sweeps
    from sloccsim.config import load_config, resolve

    cfg = resolve(load_config(CLAMPING_SWEEP), scenario="phase-sweep")
    grid, kets = sweeps._grid(cfg)
    rows = zip(sweeps._sample(cfg, kets, sweeps.ket_to_density), grid)
    clamped = sum(estimate_phase_oracle(row, beta, cfg.noise.visibility).clamped for row, (beta, _) in rows)
    assert clamped > 0

    config = tmp_path / "sweep.ini"
    config.write_text(CLAMPING_SWEEP, encoding="utf-8")
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert cli.main(["phase-sweep", "--config", str(config)]) == 0, capsys.readouterr().err
    finally:
        uninstall()
    capsys.readouterr()
    assert [s.name for s in tracer.spans].count("measurement.estimate_phase") == 1
    assert tracer.tallies["measurement.estimate_phase"] == clamped


# With --ideal, both beta = 90 deg states keep a coherence below 1e-6.
LOW_COHERENCE_TOMOGRAPHY = (
    "[experiment]\nshots = 1000000000000000\n[sweep]\nbeta_list = 90deg, 45deg\nphi_list = 0, 1\n"
)


def test_traced_tomography_extracts_in_one_span_that_tallies_the_low_coherence_states(tmp_path, capsys):
    tracing = load_tracing()
    from oracles import extract_params_oracle
    from sloccsim import cli, sweeps
    from sloccsim.config import load_config, resolve
    from sloccsim.tomography import reconstruct, setting_probabilities, simulate_tomography

    cfg = resolve(load_config(LOW_COHERENCE_TOMOGRAPHY), scenario="tomography-demo", ideal=True)
    _, kets = sweeps._grid(cfg)
    states = sweeps._noisy(cfg, sweeps.ket_to_density(kets))
    rngs = sweeps.row_generators(cfg.seed, len(states))
    rho_hats = reconstruct(simulate_tomography(setting_probabilities(states), cfg.shots, rngs))
    low_coherence = sum(extract_params_oracle(rho).low_coherence for rho in rho_hats)
    assert low_coherence == 2

    config = tmp_path / "tomography.ini"
    config.write_text(LOW_COHERENCE_TOMOGRAPHY, encoding="utf-8")
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert cli.main(["tomography-demo", "--ideal", "--config", str(config)]) == 0, capsys.readouterr().err
    finally:
        uninstall()
    capsys.readouterr()
    assert [s.name for s in tracer.spans].count("tomography.extract_params") == 1
    assert tracer.tallies["tomography.extract_params"] == low_coherence
