"""Small statistics helpers used by the analysis harness."""

from __future__ import annotations

import math
from typing import Sequence


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def stdev(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    m = mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1))


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile, p in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= p <= 100:
        raise ValueError("p must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def geo_mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("geo_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geo_mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def relative_error(estimate: float, truth: float) -> float:
    """|estimate - truth| / truth (truth > 0)."""
    if truth <= 0:
        raise ValueError("truth must be positive")
    return abs(estimate - truth) / truth
