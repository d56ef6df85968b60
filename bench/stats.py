"""How the benchmark turns repeated timings into reported numbers."""

from __future__ import annotations

import statistics
from typing import Any, Dict, Optional, Sequence, Tuple

#: Percentiles a timing may be reported at, lowest first, in tenths of a
#: percent so that ranks are exact integers.
TAIL_PERMILLE = (750, 900, 950, 990, 999)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def best_tenth(values: Sequence[float]) -> float:
    """Mean of the highest tenth of the samples (at least one).

    For rates the host's wake-up latency sets from pass to pass: what the
    host does to a pass only ever slows it, so the best passes repeat
    from run to run where the median follows the host (README, noise
    section).  A slower program moves both.
    """
    ordered = sorted(values, reverse=True)
    return statistics.fmean(ordered[: max(1, len(ordered) // 10)])


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)`` by nearest rank, or ``None`` when even
    the 75th percentile has fewer than ten samples above it (n < 40).
    """
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for permille in TAIL_PERMILLE:
        rank = -(-n * permille // 1000)  # ceil: nearest rank, 1-based
        if n - rank >= 10:
            best = (permille / 10, ordered[rank - 1])
    return best


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Median, inter-quartile range, sample count and supported tail;
    short series also keep their samples, in the order measured."""
    q1, med, q3 = quartiles(values)
    tail = tail_percentile(values)
    return {
        "median": med,
        "iqr": q3 - q1,
        "n": len(values),
        "tail_percentile": tail[0] if tail else None,
        "tail_value": tail[1] if tail else None,
        "samples": list(values) if len(values) <= 100 else None,
    }
