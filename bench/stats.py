"""Order statistics for the benchmark's timings."""

from __future__ import annotations

import math

# Candidate percentiles for a tail, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# A tail percentile must leave at least this many samples above it.
TAIL_MIN_BEYOND = 10


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest value with pct% of samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), pct) - 1]


def beyond(n: int, pct: float) -> int:
    """Samples ranked above the nearest-rank pct-th percentile of n samples."""
    return n - _rank(n, pct)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples beyond it."""
    fitting = [pct for pct in TAIL_LADDER if beyond(n, pct) >= TAIL_MIN_BEYOND]
    return fitting[-1] if fitting else None


def _rank(n: int, pct: float) -> int:
    # Rounding first keeps 99.9% of 10000 at rank 9990, not 9991.
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))
