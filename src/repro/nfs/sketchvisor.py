"""Extension NF: SketchVisor's fast path ([35]).

SketchVisor puts a small per-flow *fast path* in front of a sketch: a
table of (key, counter) slots absorbs the hot flows; when a packet's
flow is absent and the table is full, the entry with the **minimum
counter** is evicted into the normal path (a count-min sketch here).
Locating that minimum across the slots is the reduce-after-bucketing
behavior eNetSTL serves with ``reduce_min_simd`` — the one algorithm
no evaluated NF exercises.
"""

from __future__ import annotations

from typing import List

from ..core.algorithms.simd import SimdOps
from ..datastructs.countmin import CountMinSketch
from ..ebpf.cost_model import Category
from ..net.packet import Packet, XdpAction
from .base import BaseNF

#: Fast-path slot count (one cache-line-friendly group of 8 per row).
DEFAULT_SLOTS = 16
#: Key compare per occupied slot on the eBPF path.
EBPF_SLOT_CMP = 9
#: Moving an evicted entry into the normal path.
EVICT_TO_SKETCH = 18


class SketchVisorNF(BaseNF):
    """Fast-path flow counters backed by a count-min normal path."""

    name = "SketchVisor fast path"
    category = "sketching"

    def __init__(self, rt, n_slots: int = DEFAULT_SLOTS) -> None:
        super().__init__(rt)
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        self.keys: List[int] = [0] * n_slots
        self.counters: List[int] = [0] * n_slots
        self.normal = CountMinSketch(depth=2, width=2048)
        self.simd = SimdOps(rt)
        self.fast_hits = 0
        self.evictions = 0

    def _charge_scan(self) -> None:
        costs = self.costs
        occupied = sum(1 for k in self.keys if k)
        self.rt.charge(costs.slot_mem_read * occupied // 2, Category.BUCKETS)
        if self.is_ebpf:
            self.rt.charge(
                (EBPF_SLOT_CMP + costs.bounds_check) * max(occupied, 1),
                Category.BUCKETS,
            )

    def _find(self, key: int) -> int:
        self._charge_scan()
        if self.is_ebpf:
            try:
                return self.keys.index(key)
            except ValueError:
                return -1
        return self.simd.find(self.keys, key)

    def _evict_min(self) -> int:
        """Evict the minimum-counter slot; returns its index."""
        costs = self.costs
        if self.is_ebpf:
            self.rt.charge(
                costs.reduce_scalar_per_item * len(self.counters),
                Category.BUCKETS,
            )
            slot = min(range(len(self.counters)), key=self.counters.__getitem__)
        else:
            slot, _ = self.simd.reduce_min(self.counters)
        self.rt.charge(EVICT_TO_SKETCH, Category.OTHER)
        self.normal.update(self.keys[slot], self.counters[slot])
        self.evictions += 1
        return slot

    def process(self, packet: Packet) -> str:
        self.fetch_state()
        key = packet.key_int | 1       # keys must be non-zero
        slot = self._find(key)
        if slot >= 0:
            self.counters[slot] += 1
            self.rt.charge(self.costs.counter_update, Category.BUCKETS)
            self.fast_hits += 1
            return XdpAction.DROP
        # Miss: claim a free slot, or evict the minimum.
        if 0 in self.keys:
            slot = self.keys.index(0)
        else:
            slot = self._evict_min()
        self.keys[slot] = key
        self.counters[slot] = 1
        self.rt.charge(self.costs.counter_update, Category.BUCKETS)
        return XdpAction.DROP

    def estimate(self, key: int) -> int:
        """Fast-path count plus any normal-path residue (uncosted)."""
        key |= 1
        fast = 0
        for k, c in zip(self.keys, self.counters):
            if k == key:
                fast = c
                break
        return fast + self.normal.estimate(key)
