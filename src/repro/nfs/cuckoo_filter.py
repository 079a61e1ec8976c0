"""Cuckoo filter membership test ([25], Fig. 3g).

Per packet the NF tests whether the flow belongs to the configured set:
fingerprint + two candidate buckets of 4 fingerprint slots each, both
probed (partial-key cuckoo hashing).  The load sweep raises per-bucket
occupancy, growing the scalar-compare cost the eBPF baseline pays and
the advantage of SIMD fingerprint comparison.
"""

from __future__ import annotations

from ..core.algorithms.simd import SimdOps
from ..datastructs.cuckoo_filter import CuckooFilter
from ..ebpf.cost_model import Category
from ..net.packet import Packet, XdpAction
from .base import BaseNF

#: Deriving the alternate bucket index from (index, fingerprint): one
#: short hash — software in eBPF, CRC-based in eNetSTL/kernel.
ALT_INDEX_SOFT = 20
ALT_INDEX_HW = 8
#: 16-bit fingerprint extract/compare needs shift+mask work in eBPF.
FP_CMP_EBPF = 9
#: Fixed per-packet eBPF overhead (verifier re-checks; calibrated).
EBPF_FIXED_OVERHEAD = 12


class CuckooFilterNF(BaseNF):
    """Approximate set membership with deletion support."""

    name = "cuckoo filter"
    category = "membership test"

    def __init__(self, rt, n_buckets: int = 8192, slots_per_bucket: int = 4) -> None:
        super().__init__(rt)
        self.filter = CuckooFilter(n_buckets, slots_per_bucket)
        self.simd = SimdOps(rt)
        #: The key hash (fingerprint + primary index) plus the
        #: alternate-index derivation.  Outside eBPF the whole test is
        #: ONE kfunc (cf_contains): hashing, alt-index math and both
        #: SIMD probes are fused behind a single crossing.
        self._hash_cost = self.prices.crc() + (
            ALT_INDEX_SOFT if self.is_ebpf else ALT_INDEX_HW
        )
        self.members = 0
        self.nonmembers = 0

    def _charge_hashing(self) -> None:
        self.rt.charge(self._hash_cost, Category.MULTIHASH)
        if self.is_ebpf:
            self.rt.charge(EBPF_FIXED_OVERHEAD, Category.FRAMEWORK)

    def _probe(self, index: int, fp: int) -> bool:
        costs = self.costs
        bucket = self.filter.bucket(index)
        occupied = sum(1 for s in bucket if s)
        self.rt.charge(costs.slot_mem_read * occupied, Category.BUCKETS)
        if self.is_ebpf:
            self.rt.charge(
                (FP_CMP_EBPF + costs.bounds_check) * max(occupied, 1),
                Category.BUCKETS,
            )
            return fp in bucket
        return self.simd.find(bucket, fp, fused=True) >= 0

    def contains(self, key: int) -> bool:
        """Cost-charged membership probe of both candidate buckets."""
        self._charge_hashing()
        fp = self.filter.fingerprint(key)
        i1 = self.filter.index1(key)
        i2 = self.filter.alt_index(i1, fp)
        found = self._probe(i1, fp)
        if not found:
            found = self._probe(i2, fp)
        return found

    def process(self, packet: Packet) -> str:
        self.fetch_state()
        if self.contains(packet.key_int):
            self.members += 1
            return XdpAction.PASS
        self.nonmembers += 1
        return XdpAction.DROP

    def populate(self, keys) -> int:
        """Insert the member set (setup path). Returns insert count."""
        placed = 0
        for key in keys:
            if self.filter.insert(key):
                placed += 1
        return placed

    @property
    def load_factor(self) -> float:
        return self.filter.load_factor
