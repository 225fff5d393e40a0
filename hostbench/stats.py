"""Sample statistics of the benchmark: medians and the tail rule.

Every timing is reported as its median plus the *tail*: the highest
percentile of a fixed ladder that still has at least
:data:`TAIL_MIN_BEYOND` samples strictly beyond it, so a tail figure
never rests on a handful of points.  Percentiles use the nearest-rank
definition, so each reported value is one observed sample.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a percentile before it may be reported.
TAIL_MIN_BEYOND = 10


def nearest_rank(samples: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct``-th percentile of a non-empty sample."""

    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond_count(count: int, pct: float) -> int:
    """Samples ranked strictly after the nearest-rank ``pct``-th one."""

    return count - max(1, math.ceil(pct / 100.0 * count))


def tail_percentile(count: int, highest: float = TAIL_LADDER[0]) -> float:
    """The highest ladder percentile, at most ``highest``, with enough
    samples beyond it.

    Each workload caps the ladder at the percentile its nominal sample
    supports, so a faster program (more samples per run) still reports
    the same percentile and runs stay comparable.  Falls back to the
    median when even it has fewer than :data:`TAIL_MIN_BEYOND` samples
    beyond (a sample under ~20).
    """

    for pct in TAIL_LADDER:
        if pct <= highest and beyond_count(count, pct) >= TAIL_MIN_BEYOND:
            return pct
    return 50.0


def latency_summary(seconds: Sequence[float],
                    highest: float = TAIL_LADDER[0]) -> Dict[str, float]:
    """Median and tail of op latencies, in milliseconds, with counts."""

    count = len(seconds)
    pct = tail_percentile(count, highest)
    return {
        "count": count,
        "p50_ms": statistics.median(seconds) * 1000.0,
        "tail_pct": pct,
        "tail_ms": nearest_rank(seconds, pct) * 1000.0,
        "tail_beyond": beyond_count(count, pct),
    }


__all__ = ["TAIL_LADDER", "TAIL_MIN_BEYOND", "beyond_count",
           "latency_summary", "nearest_rank", "tail_percentile"]
