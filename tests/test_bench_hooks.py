"""The benchmark's tracer rebinds sloccsim functions by name; each name must exist.

perfbench/tracing.py looks every (module, attribute) of its TARGETS up with
getattr, so a renamed or deleted function makes every traced run raise.  The
table is read with ast, without importing the benchmark.  One smoke test
does import the tracer, read-only, and runs small CLI operations under it:
its tallies read the estimators' results, so a changed result type breaks
traced runs only.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracer_targets():
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        names = [getattr(target, "id", None) for target in getattr(node, "targets", ())]
        if names == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no TARGETS")


@pytest.mark.parametrize("module, attr", tracer_targets())
def test_tracer_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"sloccsim.{module}"), attr))


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
    for name in ("measurement.estimate_phase", "mixture.estimate_p", "tomography.extract_params", "slocc.prepare_lr"):
        assert name in names
    assert set(tracer.tallies) >= {"measurement.estimate_phase", "tomography.extract_params"}
    assert all(type(count) is int for count in tracer.tallies.values())
