"""Extension NF: d-ary cuckoo hash key-value query ([27]).

One of the 35 surveyed works: ``d`` hash functions give every key ``d``
candidate cells; lookup is compare-after-hashing — exactly the
``hash_simd_cmp`` unified kfunc.  The eBPF baseline computes each of
the ``d`` hashes in software and probes cell by cell; eNetSTL computes
them in one SIMD batch and compares in place, returning only the
matching row index through r0.  Both probe a
:class:`~repro.datastructs.dary_cuckoo.DaryCuckooTable` through its
``find_row``; the cell reads are priced once per mode.
"""

from __future__ import annotations

from typing import Optional

from ..core.algorithms.hashing import HashAlgos
from ..datastructs.dary_cuckoo import DaryCuckooTable
from ..ebpf.cost_model import Category
from ..net.packet import Packet, XdpAction
from .base import BaseNF

#: Cell read + key compare on the eBPF path.
EBPF_CELL_PROBE = 12
#: Value copy-out after a hit (both variants).
VALUE_FETCH = 8


class DaryCuckooNF(BaseNF):
    """d-ary cuckoo key-value query on the packet path."""

    name = "d-ary cuckoo hash"
    category = "key-value query"

    def __init__(self, rt, d: int = 4, width: int = 8192) -> None:
        super().__init__(rt)
        self.table = DaryCuckooTable(d=d, width=width)
        self.hash = HashAlgos(rt)
        #: The ``d`` cell reads of one probe: eBPF reads and compares
        #: each cell behind a bounds check; eNetSTL compares in SIMD
        #: registers, so each read costs half a slot read.
        costs = self.costs
        self._probe_cost = (
            (EBPF_CELL_PROBE + costs.bounds_check) * d
            if self.is_ebpf
            else d * costs.slot_mem_read // 2
        )
        self.hits = 0
        self.misses = 0

    def lookup(self, key: int) -> Optional[int]:
        self.fetch_state()
        if self.is_ebpf:
            # d software hashes, then the cell-by-cell probe.
            self.rt.charge(
                self.prices.multi_hash(self.table.d), Category.MULTIHASH
            )
            row = self.table.find_row(key)
        else:
            row = self.hash.hash_cmp(self.table, key)
        self.rt.charge(self._probe_cost, Category.BUCKETS)
        if row < 0:
            return None
        self.rt.charge(VALUE_FETCH, Category.BUCKETS)
        return self.table.values[row][self.table.cell(row, key)]

    def process(self, packet: Packet) -> str:
        key = packet.key_int | 1   # keys must be non-zero
        if self.lookup(key) is None:
            self.misses += 1
            return XdpAction.DROP
        self.hits += 1
        return XdpAction.TX

    def populate(self, keys, value_of=lambda k: k & 0xFFFF) -> int:
        placed = 0
        for key in keys:
            if self.table.insert(key | 1, value_of(key)):
                placed += 1
        return placed
