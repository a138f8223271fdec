"""Order statistics and span arithmetic shared by the benchmark's reports."""

from __future__ import annotations

import math
from collections import defaultdict

# Percentiles the tail metric may report, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

# A tail percentile is reported only with at least this many samples above it.
TAIL_MIN_BEYOND = 10


def _rank(percentile: float, count: int) -> int:
    """1-based nearest rank; rounding first keeps 99.9% of 10000 at rank 9990."""
    return max(1, math.ceil(round(percentile * count / 100.0, 9)))


def nearest_rank(values, percentile: float) -> float:
    """Nearest-rank percentile: the smallest value with percentile% of samples at or below it."""
    ordered = sorted(values)
    return ordered[_rank(percentile, len(ordered)) - 1]


def tail_percentile(count: int) -> float:
    """Highest ladder percentile that leaves at least TAIL_MIN_BEYOND samples above its rank.

    With fewer than 2 * TAIL_MIN_BEYOND samples no percentile qualifies and
    the median (the lowest rung) is reported; the output states which rung
    was used and the sample count, so such a tail is read as a median.
    """
    chosen = TAIL_LADDER[0]
    for percentile in TAIL_LADDER:
        if count - _rank(percentile, count) >= TAIL_MIN_BEYOND:
            chosen = percentile
    return chosen


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    ``spans`` is a sequence of records with ``start``, ``end`` and ``parent``
    (an index into the same sequence, or -1 for a root span).
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - _covered(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]
