"""Hierarchical timing wheel (Carousel's queuing core, [63], [75]).

Packets are queued into time slots by transmission timestamp; advancing
the clock drains due slots in order.  A second level covers the horizon
beyond the first wheel; expiring a level-2 slot *cascades* its items
back into level 1.

The bucket storage is pluggable: the NF variants inject an eNetSTL
:class:`~repro.core.structures.list_buckets.ListBuckets` (cost-charged,
mode-aware) while tests may use the plain Python store.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, List, Optional


class PlainBuckets:
    """Uncosted bucket store with the ListBuckets insert/drain surface."""

    def __init__(self, n_buckets: int) -> None:
        self.n_buckets = n_buckets
        self._buckets = [deque() for _ in range(n_buckets)]
        self._size = 0

    def insert_tail(self, i: int, data: Any) -> None:
        self._buckets[i].append(data)
        self._size += 1

    def drain(self, i: int) -> List[Any]:
        items = list(self._buckets[i])
        self._buckets[i].clear()
        self._size -= len(items)
        return items

    def pop_front(self, i: int) -> Optional[Any]:
        if not self._buckets[i]:
            return None
        self._size -= 1
        return self._buckets[i].popleft()

    def bucket_len(self, i: int) -> int:
        return len(self._buckets[i])

    def __len__(self) -> int:
        return self._size


BucketFactory = Callable[[int], Any]


class TimingWheel:
    """Two-level timing wheel over pluggable bucket stores.

    ``tick_ns`` is the level-1 slot granularity; level 1 spans
    ``l1_slots * tick_ns`` and level 2 spans ``l1_slots * l2_slots *
    tick_ns``.  Items beyond the full horizon are clamped to the last
    level-2 slot (Carousel applies the same bounded-horizon policy).
    """

    def __init__(
        self,
        tick_ns: int = 1000,
        l1_slots: int = 256,
        l2_slots: int = 64,
        bucket_factory: BucketFactory = PlainBuckets,
    ) -> None:
        if tick_ns <= 0:
            raise ValueError("tick_ns must be positive")
        if l1_slots <= 0 or l2_slots <= 0:
            raise ValueError("slot counts must be positive")
        self.tick_ns = tick_ns
        self.l1_slots = l1_slots
        self.l2_slots = l2_slots
        self.l1 = bucket_factory(l1_slots)
        self.l2 = bucket_factory(l2_slots)
        self.clk = 0              # current tick index
        self._len = 0

    @property
    def horizon_ns(self) -> int:
        return self.tick_ns * self.l1_slots * self.l2_slots

    def add(self, item: Any, expires_ns: int) -> None:
        """Queue ``item`` for transmission at ``expires_ns``."""
        tick = max(expires_ns // self.tick_ns, self.clk)
        delta = tick - self.clk
        if delta < self.l1_slots:
            self.l1.insert_tail(tick % self.l1_slots, (tick, item))
        else:
            l2_delta = min(delta // self.l1_slots, self.l2_slots - 1)
            l2_tick = self.clk // self.l1_slots + l2_delta
            self.l2.insert_tail(l2_tick % self.l2_slots, (tick, item))
        self._len += 1

    def advance_to(self, now_ns: int) -> List[Any]:
        """Drain every item due at or before ``now_ns`` (in slot order)."""
        target = now_ns // self.tick_ns
        due: List[Any] = []
        while self.clk <= target:
            # Cascade level 2 when a level-1 revolution starts.
            if self.clk % self.l1_slots == 0:
                l2_index = (self.clk // self.l1_slots) % self.l2_slots
                for tick, item in self.l2.drain(l2_index):
                    if tick <= target:
                        due.append(item)
                        self._len -= 1
                    elif tick - self.clk < self.l1_slots:
                        self.l1.insert_tail(tick % self.l1_slots, (tick, item))
                    else:
                        # Clamped far-future item: stay in level 2.
                        self.l2.insert_tail(
                            (tick // self.l1_slots) % self.l2_slots, (tick, item)
                        )
            for tick, item in self.l1.drain(self.clk % self.l1_slots):
                due.append(item)
                self._len -= 1
            self.clk += 1
        return due

    def __len__(self) -> int:
        return self._len
