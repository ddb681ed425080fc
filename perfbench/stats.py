"""Summary statistics the benchmark reports: medians, quartile spread and
the tail-percentile rule.

A timing is reported as its median plus the highest percentile that still
has at least ten samples beyond it, together with the sample count; a
spread over runs is the distance between the first and third quartile as a
share of the median, with quartiles as ``statistics.quantiles(n=4)``
computes them.
"""

from __future__ import annotations

import statistics

#: Candidate percentiles in per-mille, highest last.
PERCENTILES_PERMILLE = (500, 900, 990, 999)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def median(values: list[float]) -> float:
    """The median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def rank(n: int, permille: int) -> int:
    """1-based nearest-rank position of a percentile among ``n`` samples."""
    return -(-n * permille // 1000)


def tail_permille(n: int) -> int | None:
    """The highest candidate percentile with at least ``MIN_BEYOND``
    samples beyond its rank, or None when even the median has fewer."""
    best = None
    for permille in PERCENTILES_PERMILLE:
        if n - rank(n, permille) >= MIN_BEYOND:
            best = permille
    return best


def percentile(values: list[float], permille: int) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(rank(len(ordered), permille), 1) - 1]
