"""Order statistics for the benchmark's timings.

A tail percentile is only reported where it has at least ``TAIL_SAMPLES``
samples beyond it, so a single outlier can never be the reported value.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: The fewest samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10


def tail_percentile(n: int) -> int:
    """The highest whole percentile, at most 90, that leaves at
    least :data:`TAIL_SAMPLES` of ``n`` samples beyond it (90 for 100 or
    more samples, 80 for 50, and so on).  Raises ``ValueError`` when
    ``n`` is too small for any percentile to qualify."""
    if n <= TAIL_SAMPLES:
        raise ValueError(f"{n} samples leave no percentile with "
                         f"{TAIL_SAMPLES} beyond it")
    return min(90, math.floor(100 * (n - TAIL_SAMPLES) / n))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    # Rounded first: 0.9 * 100 is 90.00000000000001 in binary floating
    # point, and its ceiling would skip a rank.
    rank = max(1, math.ceil(round(pct * len(ordered) / 100, 9)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> tuple[float, int]:
    """``(value, percentile)`` of the reportable tail percentile."""
    pct = tail_percentile(len(values))
    return percentile(values, pct), pct


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def grouped_median(values: Sequence[float], width: float) -> float:
    """The median of samples quantised to multiples of ``width``,
    interpolated within the median's bin (the grouped-data median).

    Timestamps logged at millisecond resolution make interval medians
    land on whole milliseconds; treating each sample as spread evenly
    over its bin recovers a continuous estimate from the bin counts.
    """
    if not values:
        raise ValueError("median of no samples")
    bins: dict[int, int] = {}
    for value in values:
        key = round(value / width)
        bins[key] = bins.get(key, 0) + 1
    half = len(values) / 2
    below = 0
    for key in sorted(bins):
        count = bins[key]
        if below + count >= half:
            lower_edge = (key - 0.5) * width
            return lower_edge + (half - below) / count * width
        below += count
    raise AssertionError("unreachable: the bins hold every sample")

