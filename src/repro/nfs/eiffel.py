"""Eiffel's cFFS priority queue ([64], Fig. 3h).

Eiffel encodes bucket occupancy in a bitmap hierarchy and finds the
next busy priority with FFS — O(levels) work where a level is one
64-bit word.  The sweep varies ``levels`` (64^levels distinct
priorities): more levels mean more FFS queries per dequeue, which is
where hardware FFS (3 cycles) beats the eBPF software loop — the O1
behavior.

Bucket payload storage is a ring per bucket in both variants (Eiffel's
buckets are arrays, not linked lists), so the variants differ only in
the bit-manipulation costs plus the usual framework overheads.
"""

from __future__ import annotations

from ..core.algorithms.bitops import BitOps
from ..datastructs.cffs import CFFSQueue
from ..ebpf.cost_model import Category
from ..net.packet import Packet, XdpAction
from .base import BaseNF

#: Ring-buffer push/pop on a preallocated bucket (same in all modes).
RING_OP_COST = 12
#: Bitmap set/clear per level (mask + or/and + store).
BIT_SET_COST = 4


class EiffelNF(BaseNF):
    """cFFS-based packet scheduler: enqueue by priority, dequeue min."""

    name = "cFFS priority queue (Eiffel)"
    category = "queuing"

    def __init__(self, rt, levels: int = 2) -> None:
        super().__init__(rt)
        self.levels = levels
        self.bits = BitOps(rt, Category.BITOPS)
        self.queue = CFFSQueue(levels=levels, ffs=self._ffs_uncharged)
        self.enqueued = 0
        self.dequeued = 0

    @staticmethod
    def _ffs_uncharged(x: int) -> int:
        # CFFSQueue calls ffs internally; the NF charges it explicitly
        # (per level) so costs stay visible at this layer.
        from ..core.algorithms.bitops import soft_ffs

        return soft_ffs(x)

    def _priority_of(self, packet: Packet) -> int:
        # Flow-derived rank spread across the full priority range.
        return (packet.key_int * 2654435761) % self.queue.n_priorities

    def process(self, packet: Packet) -> str:
        self.fetch_state()
        # Enqueue: bitmap set per level + bucket push.
        self.queue.enqueue(self._priority_of(packet), packet.five_tuple)
        self.rt.charge(
            BIT_SET_COST * self.levels + RING_OP_COST, Category.FUNDAMENTAL_DS
        )
        self.enqueued += 1
        # Dequeue the current minimum: one FFS per level + bucket pop
        # + bitmap clear per level.
        for _ in range(self.levels):
            self.bits.ffs(1)
        out = self.queue.dequeue_min()
        self.rt.charge(
            BIT_SET_COST * self.levels + RING_OP_COST, Category.FUNDAMENTAL_DS
        )
        self.dequeued += 1
        return XdpAction.TX if out is not None else XdpAction.DROP

    @property
    def pending(self) -> int:
        return len(self.queue)
