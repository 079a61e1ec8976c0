"""Extension NF: counting Bloom filter ([10]).

Bloom membership with deletion support: each position holds a small
counter instead of a bit; insert increments, delete decrements, query
tests all k counters for non-zero.  Exercises count-after-hashing over
the membership-test category (O2 + O6).
"""

from __future__ import annotations

from typing import List

from ..core.algorithms.hashing import fast_hash32
from ..ebpf.cost_model import Category
from ..net.packet import Packet, XdpAction
from .base import BaseNF

#: Counter fetch + test per hash on the eBPF path.
EBPF_COUNTER_OP = 8


class CountingBloomNF(BaseNF):
    """Deletable flow allowlist."""

    name = "counting Bloom filter"
    category = "membership test"

    def __init__(self, rt, width: int = 1 << 15, n_hashes: int = 4) -> None:
        super().__init__(rt)
        if width <= 0 or n_hashes <= 0:
            raise ValueError("width and n_hashes must be positive")
        self.width = width
        self.n_hashes = n_hashes
        self.counters: List[int] = [0] * width
        #: One pass: the k hashes, then a counter access per hash (in
        #: eBPF a fetch + test and a bounds check).
        costs = self.costs
        per_counter = (
            EBPF_COUNTER_OP + costs.bounds_check if self.is_ebpf
            else costs.counter_update
        )
        self._pass_cost = (
            self.prices.multi_hash(n_hashes) + per_counter * n_hashes
        )
        self.members = 0
        self.nonmembers = 0

    def _positions(self, key: int):
        return [fast_hash32(key, s) % self.width for s in range(self.n_hashes)]

    def _charge(self) -> None:
        self.rt.charge(self._pass_cost, Category.MULTIHASH)

    def add(self, key: int) -> None:
        self.fetch_state()
        self._charge()
        for pos in self._positions(key):
            self.counters[pos] += 1

    def remove(self, key: int) -> bool:
        """Decrement the key's counters; False if it was not present
        (nothing is changed then — no underflow)."""
        self.fetch_state()
        self._charge()
        positions = self._positions(key)
        if any(self.counters[p] == 0 for p in positions):
            return False
        for pos in positions:
            self.counters[pos] -= 1
        return True

    def contains(self, key: int) -> bool:
        self.fetch_state()
        self._charge()
        return all(self.counters[p] > 0 for p in self._positions(key))

    def process(self, packet: Packet) -> str:
        if self.contains(packet.key_int):
            self.members += 1
            return XdpAction.PASS
        self.nonmembers += 1
        return XdpAction.DROP

    def populate(self, keys) -> None:
        """Uncosted bulk insert for workload setup."""
        for key in keys:
            for pos in self._positions(key):
                self.counters[pos] += 1
