"""Spans around calls into sloccsim's modules, installed from outside the package.

A traced run rebinds each layer function on every sloccsim module that
looks it up by name, so the program's own code paths are timed without
editing it.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import NamedTuple

from stats import self_times

# The package's modules; each is one layer of the report.
LAYERS = (
    "cli",
    "config",
    "sweeps",
    "slocc",
    "states",
    "noise",
    "measurement",
    "mixture",
    "plate",
    "tomography",
)

# (module that binds the function, attribute).  The span is named
# "<module>.<attribute>"; ``noise.least_squares`` is scipy's solver as the
# noise fit looks it up, so each of its spans is one fallback fit.
TARGETS = (
    ("config", "load_config_file"),
    ("config", "resolve"),
    ("sweeps", "run_scenario"),
    ("sweeps", "render_csv"),
    ("sweeps", "point_seeds"),
    ("slocc", "prepare_lr"),
    ("states", "ket_to_density"),
    ("noise", "noisy_state"),
    ("noise", "fit_noise"),
    ("noise", "least_squares"),
    ("measurement", "rotate_density"),
    ("measurement", "outcome_probs"),
    ("measurement", "sample_counts"),
    ("measurement", "estimate_phase"),
    ("measurement", "bootstrap_zz"),
    ("mixture", "mixed_state"),
    ("mixture", "estimate_p"),
    ("plate", "phase_from_displacement"),
    ("tomography", "simulate_tomography"),
    ("tomography", "setting_probabilities"),
    ("tomography", "reconstruct"),
    ("tomography", "extract_params"),
)


# Functions whose own self share is reported beside their module's.
SHARED_FUNCTIONS = ("measurement.bootstrap_zz", "states.DensityMatrix4")


def _n_boot(args, kwargs, result):
    return kwargs["n_boot"] if "n_boot" in kwargs else args[1]


# Counts read off a call's arguments or result, keyed by span name.
TALLIES = {
    "measurement.bootstrap_zz": _n_boot,
    "measurement.estimate_phase": lambda args, kwargs, result: int(result.clamped),
    "tomography.extract_params": lambda args, kwargs, result: int(result.low_coherence),
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for an operation's root
    op: int
    error: bool


class Tracer:
    """Collects spans and tallies for the operations of one traced pass."""

    def __init__(self) -> None:
        self.spans: list = []
        self.tallies: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, tallies = self.spans, self._stack, self.tallies
        tally = TALLIES.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserved so children can name this span as parent
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op, error)
            if tally is not None:
                tallies[name] += tally(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer):
    """Rebind every target on each sloccsim module that looks it up; returns an undo function."""
    import sloccsim.cli  # noqa: F401  (imports every layer module)

    modules = [m for n, m in sys.modules.items() if n == "sloccsim" or n.startswith("sloccsim.")]
    undo = []
    for module_name, attr in TARGETS:
        original = getattr(sys.modules[f"sloccsim.{module_name}"], attr)
        wrapper = tracer.wrap(f"{module_name}.{attr}", original)
        for module in modules:
            if module.__dict__.get(attr) is original:
                undo.append((module, attr, original))
                setattr(module, attr, wrapper)
    # DensityMatrix4 validates in __post_init__, which its __init__ looks up on the class.
    density = sys.modules["sloccsim.states"].DensityMatrix4
    undo.append((density, "__post_init__", density.__post_init__))
    density.__post_init__ = tracer.wrap("states.DensityMatrix4", density.__post_init__)

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def count_signature(spans, tallies, rows: int) -> dict:
    """Counts that must repeat exactly when the same operations are traced again."""
    calls = Counter(span.name for span in spans)
    errors = Counter(span.name for span in spans if span.error)
    return {"rows": rows, "calls": dict(calls), "errors": dict(errors), "tallies": dict(tallies)}


def layer_metrics(spans, tallies, rows: int, ops: int, op_seconds: float) -> dict:
    """Per-layer metrics of one traced pass as {name: (value, unit)}.

    ``op_seconds`` is the summed wall time of the pass's operations; self
    shares are module self time over it.  Per-call figures of a function the
    workload never calls are reported as 0.
    """
    selfs = self_times(spans)
    calls = Counter()
    total = defaultdict(float)
    own = defaultdict(float)
    module_self = defaultdict(float)
    module_errors = Counter()
    for span, self_time in zip(spans, selfs):
        calls[span.name] += 1
        total[span.name] += span.end - span.start
        own[span.name] += self_time
        module = span.name.split(".", 1)[0]
        module_self[module] += self_time
        module_errors[module] += span.error

    def per_call(name, scale):
        return total[name] / calls[name] * scale if calls[name] else 0.0

    def self_per_call(name, scale):
        return own[name] / calls[name] * scale if calls[name] else 0.0

    def frac(count, name):
        return count / calls[name] if calls[name] else 0.0

    resamples = tallies["measurement.bootstrap_zz"]
    boot_time = total["measurement.bootstrap_zz"]
    out = {
        "cli.main.self_ms": (own["cli.main"] / ops * 1e3, "ms"),
        "config.load_config_file.us_per_call": (per_call("config.load_config_file", 1e6), "us"),
        "config.resolve.us_per_call": (per_call("config.resolve", 1e6), "us"),
        "sweeps.run_scenario.self_ms": (own["sweeps.run_scenario"] / ops * 1e3, "ms"),
        "sweeps.point_seeds.us_per_call": (per_call("sweeps.point_seeds", 1e6), "us"),
        "sweeps.render_csv.ms": (per_call("sweeps.render_csv", 1e3), "ms"),
        "slocc.prepare_lr.us_per_call": (per_call("slocc.prepare_lr", 1e6), "us"),
        "states.ket_to_density.us_per_call": (per_call("states.ket_to_density", 1e6), "us"),
        "states.DensityMatrix4.us_per_call": (per_call("states.DensityMatrix4", 1e6), "us"),
        "states.DensityMatrix4.calls_per_row": (
            calls["states.DensityMatrix4"] / rows if rows else 0.0,
            "calls/row",
        ),
        "noise.noisy_state.us_per_call": (per_call("noise.noisy_state", 1e6), "us"),
        "noise.fit_noise.ms": (per_call("noise.fit_noise", 1e3), "ms"),
        "noise.fit_noise.fallback_calls": (calls["noise.least_squares"], "count"),
        "measurement.rotate_density.us_per_call": (per_call("measurement.rotate_density", 1e6), "us"),
        "measurement.outcome_probs.us_per_call": (per_call("measurement.outcome_probs", 1e6), "us"),
        "measurement.sample_counts.us_per_call": (per_call("measurement.sample_counts", 1e6), "us"),
        "measurement.estimate_phase.self_us_per_call": (
            self_per_call("measurement.estimate_phase", 1e6),
            "us",
        ),
        "measurement.estimate_phase.clamped_frac": (
            frac(tallies["measurement.estimate_phase"], "measurement.estimate_phase"),
            "frac",
        ),
        "measurement.bootstrap_zz.us_per_call": (per_call("measurement.bootstrap_zz", 1e6), "us"),
        "measurement.bootstrap_zz.resamples": (resamples, "count"),
        "measurement.bootstrap_zz.resamples_per_s": (
            resamples / boot_time if boot_time else 0.0,
            "1/s",
        ),
        "mixture.mixed_state.us_per_call": (per_call("mixture.mixed_state", 1e6), "us"),
        "mixture.estimate_p.self_us_per_call": (self_per_call("mixture.estimate_p", 1e6), "us"),
        "plate.phase_from_displacement.us_per_call": (
            per_call("plate.phase_from_displacement", 1e6),
            "us",
        ),
        "tomography.simulate_tomography.us_per_call": (
            per_call("tomography.simulate_tomography", 1e6),
            "us",
        ),
        "tomography.setting_probabilities.us_per_call": (
            per_call("tomography.setting_probabilities", 1e6),
            "us",
        ),
        "tomography.reconstruct.us_per_call": (per_call("tomography.reconstruct", 1e6), "us"),
        "tomography.extract_params.us_per_call": (per_call("tomography.extract_params", 1e6), "us"),
        "tomography.extract_params.low_coherence_frac": (
            frac(tallies["tomography.extract_params"], "tomography.extract_params"),
            "frac",
        ),
    }
    for name in SHARED_FUNCTIONS:
        out[f"{name}.self_share"] = (own[name] / op_seconds, "frac")
    for module in LAYERS:
        out[f"{module}.self_share"] = (module_self[module] / op_seconds, "frac")
        out[f"{module}.errors"] = (module_errors[module], "count")
    out["trace.unattributed_share"] = (
        1.0 - sum(module_self[m] for m in LAYERS) / op_seconds,
        "frac",
    )
    return out
