"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least ten samples beyond it
    among ``n`` samples, or None when even the median has fewer."""
    for p in TAIL_LADDER:
        if n - nearest_rank(p, n) >= BEYOND:
            return p
    return None


def nearest_rank(p: float, n: int) -> int:
    """1-based rank of the ``p``-th percentile among ``n`` sorted samples."""
    return max(1, math.ceil(round(p / 100 * n, 9)))


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[nearest_rank(p, len(ordered)) - 1]
