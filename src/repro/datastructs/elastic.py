"""ElasticSketch ([80]).

A two-part sketch: a *heavy part* of vote-based buckets catches
elephant flows exactly; evicted or non-resident traffic falls through
to a *light part* (a count-min-style counter array).  The heavy-part
bucket holds (key, positive votes, negative votes); a colliding flow
increments the negative vote and takes over the bucket once
``negative/positive`` exceeds a threshold, sending the incumbent's
count to the light part.

Estimates: resident flows read their heavy counter (plus any light
residue from earlier evictions); everyone else reads the light part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..core.algorithms.hashing import fast_hash32

DEFAULT_LAMBDA = 8   # eviction threshold: neg votes per pos vote


@dataclass
class _HeavyBucket:
    key: int = 0
    positive: int = 0      # packets counted for the resident flow
    negative: int = 0      # collisions since the resident took over
    flag: bool = False     # resident may have residue in the light part


class ElasticSketch:
    """Heavy+light flow counter with vote-based eviction."""

    def __init__(
        self,
        heavy_buckets: int = 2048,
        light_width: int = 8192,
        lam: int = DEFAULT_LAMBDA,
    ) -> None:
        if heavy_buckets <= 0 or light_width <= 0:
            raise ValueError("sizes must be positive")
        if lam <= 0:
            raise ValueError("lambda must be positive")
        self.heavy: List[_HeavyBucket] = [
            _HeavyBucket() for _ in range(heavy_buckets)
        ]
        self.light: List[int] = [0] * light_width
        self.lam = lam
        self.total = 0

    def _heavy_index(self, key: int) -> int:
        return fast_hash32(key, 700) % len(self.heavy)

    def _light_index(self, key: int) -> int:
        return fast_hash32(key, 701) % len(self.light)

    def _light_add(self, key: int, count: int) -> None:
        self.light[self._light_index(key)] += count

    def update(self, key: int) -> str:
        """Count one packet; returns which path absorbed it
        ("heavy", "light", or "evict")."""
        self.total += 1
        bucket = self.heavy[self._heavy_index(key)]
        if bucket.key == key:
            bucket.positive += 1
            return "heavy"
        if bucket.positive == 0:
            bucket.key = key
            bucket.positive = 1
            bucket.negative = 0
            bucket.flag = False
            return "heavy"
        bucket.negative += 1
        if bucket.negative >= self.lam * bucket.positive:
            # Vote out the incumbent: its count moves to the light part.
            self._light_add(bucket.key, bucket.positive)
            bucket.key = key
            bucket.positive = 1
            bucket.negative = 0
            bucket.flag = True   # the new resident was counted in light
            self._light_add(key, 0)  # (no-op; keeps the path explicit)
            return "evict"
        self._light_add(key, 1)
        return "light"

    def estimate(self, key: int) -> int:
        bucket = self.heavy[self._heavy_index(key)]
        light = self.light[self._light_index(key)]
        if bucket.key == key:
            return bucket.positive + (light if bucket.flag else 0)
        return light

    def heavy_flows(self) -> List[Tuple[int, int]]:
        """(key, count) for every resident heavy-part flow."""
        return [
            (b.key, b.positive) for b in self.heavy if b.positive > 0
        ]

    @property
    def heavy_occupancy(self) -> float:
        return sum(1 for b in self.heavy if b.positive) / len(self.heavy)
