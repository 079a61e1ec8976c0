"""CuckooSwitch FIB lookup ([82], Fig. 3c).

Key-value query over a blocked cuckoo hash: the 5-tuple hashes to two
candidate buckets of 8 slots; each probe compares the key's signature
against the bucket's signature array — O6 (multiple buckets in
contiguous memory).  Per the paper, higher load means more occupied
slots per bucket, so SIMD parallel comparison (``find_simd``) wins more.

Cost composition per probed bucket:

- all modes: one bucket fetch + a memory-streaming cost per occupied
  slot (the table far exceeds cache at eval sizes);
- eBPF: software hash of the key, scalar signature compare + verifier
  bounds check per occupied slot;
- eNetSTL: ``hw_hash_crc`` + one ``find_simd`` batch per bucket;
- kernel: eNetSTL minus the kfunc-call overheads.
"""

from __future__ import annotations

from typing import Optional

from ..core.algorithms.simd import SimdOps
from ..datastructs.cuckoo import BlockedCuckooTable
from ..ebpf.cost_model import Category
from ..net.packet import Packet, XdpAction
from .base import BaseNF

#: Full-key verification after a signature hit (13B compare).
KEY_VERIFY_COST = 12
#: Fixed per-packet eBPF overhead: verifier-mandated re-checks around
#: map-value pointer arithmetic on the two bucket derefs (calibrated).
EBPF_FIXED_OVERHEAD = 25
#: Deriving the second bucket index + signature from the first hash.
DERIVE_COST = 5


class CuckooSwitchNF(BaseNF):
    """Blocked-cuckoo-hash FIB: lookup destination port per packet."""

    name = "CuckooSwitch (blocked cuckoo hash)"
    category = "key-value query"

    def __init__(self, rt, n_buckets: int = 4096, slots_per_bucket: int = 8) -> None:
        super().__init__(rt)
        self.table = BlockedCuckooTable(n_buckets, slots_per_bucket)
        self.simd = SimdOps(rt)
        #: ``hw_hash_crc`` plus deriving the second index and signature.
        self._hash_cost = self.prices.crc() + DERIVE_COST
        self.hits = 0
        self.misses = 0

    def _charge_hash(self) -> None:
        self.rt.charge(self._hash_cost, Category.MULTIHASH)
        if self.is_ebpf:
            self.rt.charge(EBPF_FIXED_OVERHEAD, Category.FRAMEWORK)

    def _probe(self, index: int, key: int, sig: int) -> Optional[int]:
        """Probe one bucket for ``key`` (signature ``sig``); returns the
        stored value on a hit."""
        costs = self.costs
        table = self.table
        sigs = table.bucket_signatures(index)
        occupied = len(sigs) - sigs.count(0)
        # Streaming the bucket's occupied entries from memory costs the
        # same regardless of how they are compared.
        self.rt.charge(costs.slot_mem_read * occupied, Category.BUCKETS)
        if self.is_ebpf:
            self.rt.charge(
                (costs.cmp_scalar_per_item + costs.bounds_check) * max(occupied, 1),
                Category.BUCKETS,
            )
            hit = table.probe_bucket(index, key, sig)
        else:
            slot = self.simd.find(sigs, sig)
            hit = table.probe_bucket(index, key, sig) if slot >= 0 else None
        if hit is not None:
            self.rt.charge(KEY_VERIFY_COST, Category.BUCKETS)
            return hit[1]
        return None

    def lookup(self, key: int) -> Optional[int]:
        self._charge_hash()
        table = self.table
        sig = table.signature(key)
        value = self._probe(table.index1(key), key, sig)
        if value is None:
            value = self._probe(table.index2(key), key, sig)
        return value

    def process(self, packet: Packet) -> str:
        self.fetch_state()
        value = self.lookup(packet.key_int)
        if value is None:
            self.misses += 1
            return XdpAction.DROP
        self.hits += 1
        return XdpAction.TX

    def populate(self, keys, value_of=lambda k: k & 0xFFFF) -> int:
        """Fill the FIB (setup; not part of the measured path).

        Returns how many keys were actually placed.
        """
        placed = 0
        for key in keys:
            if self.table.insert(key, value_of(key)):
                placed += 1
        return placed

    @property
    def load_factor(self) -> float:
        return self.table.load_factor
