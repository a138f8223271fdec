"""CSV rendering: the per-header templates against the per-cell rule they replaced.

Tally columns render as integers and every other cell with 12 significant
digits.  ``"%.12g" % x`` equals ``format(float(x), ".12g")`` for every
double, but an integer above 1e12 in a ``"%.12g"`` column would lose digits,
so the tallies need ``"%d"``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sloccsim.config import ExperimentConfig, resolve
from sloccsim.sweeps import (
    COUNTS_HEADER,
    MIXTURE_HEADER,
    PHASE_SWEEP_HEADER,
    PLATE_HEADER,
    TOMOGRAPHY_HEADER,
    render_csv,
    run_scenario,
)

from oracles import render_csv_oracle

EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308, 2.0**53 + 1]
# nan, infinities and subnormals included; numpy scalars as the pipeline may pass them
floats = (
    st.floats(allow_subnormal=True)
    | st.floats(allow_subnormal=True).map(np.float64)
    | st.sampled_from(EDGE_FLOATS)
)
counts = st.integers(0, 2**63 - 1) | st.integers(0, 2**63 - 1).map(np.int64)
count_rows = st.lists(
    st.tuples(floats, floats, counts, counts, counts, counts, counts).map(list), max_size=6
)


@settings(max_examples=200, deadline=None)
@given(rows=count_rows)
@example(rows=[[-0.0, math.nan, 0, 10**12, 2**53 + 1, 2**63 - 1, 2**63 - 1]])
def test_count_rows_match_per_cell_rule(rows):
    assert render_csv(COUNTS_HEADER, rows) == render_csv_oracle(COUNTS_HEADER, rows)


@settings(max_examples=100, deadline=None)
@given(
    header=st.sampled_from([PHASE_SWEEP_HEADER, MIXTURE_HEADER, PLATE_HEADER, TOMOGRAPHY_HEADER]),
    data=st.data(),
)
def test_float_rows_match_per_cell_rule(header, data):
    row = st.lists(floats, min_size=len(header), max_size=len(header))
    rows = data.draw(st.lists(row, max_size=6))
    assert render_csv(header, rows) == render_csv_oracle(header, rows)


SCENARIOS = (
    "phase-sweep",
    "beta-sweep",
    "mixture-sweep",
    "plate-calibration",
    "counts-demo",
    "tomography-demo",
)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_default_runs_render_as_per_cell_rule(scenario):
    header, rows = run_scenario(resolve(ExperimentConfig(), scenario))
    assert render_csv(header, rows) == render_csv_oracle(header, rows)
