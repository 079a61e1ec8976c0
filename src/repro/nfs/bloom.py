"""Extension NF: classic Bloom-filter membership test ([8]).

The oldest surveyed work: k bits per key, set-after-hashing on insert
and test-after-hashing on query — the ``hash_simd_setbits`` /
``hash_simd_testbits`` unified kfuncs, run on a
:class:`~repro.datastructs.BloomFilter`.  The eBPF baseline computes
each hash in software and pays a bounds check per bit access, with no
early exit.  A query costs one hit price or one miss price: the
kfuncs' ``LibraryPrices.hash_op``, or the eBPF pass.  The batch path
charges the same two prices in bulk.
"""

from __future__ import annotations

from ..core.algorithms.hashing import HashAlgos
from ..datastructs.bloom import BloomFilter
from ..ebpf.cost_model import Category
from ..net.packet import Packet, XdpAction
from .base import BaseNF

#: Bit fetch + mask + test on the eBPF path (per hash).
EBPF_BIT_OP = 7


class BloomFilterNF(BaseNF):
    """Flow allowlist: PASS members, DROP everything else."""

    name = "Bloom filter"
    category = "membership test"

    def __init__(self, rt, n_bits: int = 1 << 16, n_hashes: int = 4) -> None:
        super().__init__(rt)
        self.bloom = BloomFilter(n_bits, n_hashes)
        self.n_bits = n_bits
        self.n_hashes = n_hashes
        #: The filter's own bitmap.
        self.words = self.bloom.words
        self.hash = HashAlgos(rt)
        #: An insert or a query that finds every bit set, and a query
        #: that stops at a clear bit.  eBPF pays a software hash, a bit
        #: operation and a bounds check per hash function either way.
        if self.is_ebpf:
            costs = self.costs
            self._hit_cost = self._miss_cost = (
                costs.hash_scalar + EBPF_BIT_OP + costs.bounds_check
            ) * n_hashes
        else:
            self._hit_cost = self.prices.hash_op(n_hashes)
            self._miss_cost = self.prices.hash_op(n_hashes, hit=False)
        self.members = 0
        self.nonmembers = 0

    def add(self, key: int) -> None:
        """Cost-charged insert (control path, but measurable)."""
        self.fetch_state()
        if self.is_ebpf:
            self.rt.charge(self._hit_cost, Category.MULTIHASH)
            self.bloom.add(key)
        else:
            self.hash.hash_setbits(self.bloom, key)

    def contains(self, key: int) -> bool:
        self.fetch_state()
        if self.is_ebpf:
            self.rt.charge(self._hit_cost, Category.MULTIHASH)
            return key in self.bloom
        return self.hash.hash_testbits(self.bloom, key)

    def process(self, packet: Packet) -> str:
        if self.contains(packet.key_int):
            self.members += 1
            return XdpAction.PASS
        self.nonmembers += 1
        return XdpAction.DROP

    def process_batch(self, packets) -> dict:
        """Batch fast path: cycle-identical to per-packet :meth:`process`.

        Membership is evaluated uncosted in a tight loop (the filter is
        read-only on the data path), then the exact charges the
        per-packet path would have made are applied in bulk — a query
        costs only the hit or the miss price, so counting hits is
        enough to reproduce the cycle stream.
        """
        n = len(packets)
        if n == 0:
            return {}
        bloom = self.bloom
        hits = 0
        for pkt in packets:
            if pkt.key_int in bloom:
                hits += 1
        misses = n - hits
        self.fetch_state(n)
        self.rt.charge(
            self._hit_cost * hits + self._miss_cost * misses, Category.MULTIHASH
        )
        self.members += hits
        self.nonmembers += misses
        verdicts = {}
        if hits:
            verdicts[XdpAction.PASS] = hits
        if misses:
            verdicts[XdpAction.DROP] = misses
        return verdicts

    def populate(self, keys) -> None:
        """Uncosted bulk insert for workload setup."""
        add = self.bloom.add
        for key in keys:
            add(key)
