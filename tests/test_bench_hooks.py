"""The benchmark's tracer rebinds sloccsim functions by name; each name must exist.

perfbench/tracing.py looks every (module, attribute) of its TARGETS up with
getattr, so a renamed or deleted function makes every traced run raise.  The
table is read with ast, without importing the benchmark.
"""

import ast
import importlib
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
