"""Case study 3: queuing in Carousel ([63], §5.3, Fig. 3f).

Carousel paces packets by queuing them into a timing wheel keyed by
transmission timestamp.  Per packet the NF: reads the clock, enqueues
the packet into the slot its timestamp selects, then advances the wheel
and dequeues everything due — O3 (fundamental data structures) driven
by the list-buckets structure.

The bucket store is a mode-aware :class:`ListBuckets`: the eBPF
baseline pays map-lookup + spin-lock + list-op per operation (eBPF
couples linked lists to locks), eNetSTL one kfunc per operation on
percpu bucket queues.  Empty-slot scanning uses the occupancy bitmap
(FFS-assisted in eNetSTL/kernel; software scan in eBPF).
"""

from __future__ import annotations

from ..core.algorithms.bitops import BitOps
from ..core.structures.list_buckets import ListBuckets
from ..datastructs.timewheel import TimingWheel
from ..ebpf.cost_model import Category
from ..net.packet import Packet, XdpAction
from .base import BaseNF

#: Pacing delays are spread across this horizon fraction.
DEFAULT_DELAY_RANGE_NS = 200_000


class TimeWheelNF(BaseNF):
    """Two-level timing-wheel packet pacer."""

    name = "time wheel (Carousel)"
    category = "queuing"

    def __init__(
        self,
        rt,
        tick_ns: int = 1_000,
        l1_slots: int = 256,
        l2_slots: int = 64,
        delay_range_ns: int = DEFAULT_DELAY_RANGE_NS,
    ) -> None:
        super().__init__(rt)
        self.tick_ns = tick_ns
        self.delay_range_ns = delay_range_ns
        self.bits = BitOps(rt, Category.FUNDAMENTAL_DS)
        self.wheel = TimingWheel(
            tick_ns=tick_ns,
            l1_slots=l1_slots,
            l2_slots=l2_slots,
            bucket_factory=lambda n: ListBuckets(rt, n),
        )
        self.enqueued = 0
        self.dequeued = 0

    def _charge_slot_scans(self, ticks_advanced: int) -> None:
        """Cost of skipping over (mostly empty) slots while advancing.

        eNetSTL and the kernel consult the occupancy bitmap: one FFS
        per 64-slot word crossed.  The eBPF baseline re-reads the slot
        head stored in the map value and tests it per tick.
        """
        if ticks_advanced <= 0:
            return
        # The per-slot emptiness checks themselves are charged inside
        # ListBuckets (eBPF re-tests head pointers; eNetSTL/kernel test
        # bitmap bits); here we add the word-level FFS the bitmap path
        # uses to skip runs of empty slots.
        if not self.is_ebpf:
            words = (ticks_advanced + 63) // 64
            for _ in range(words):
                self.bits.ffs(1)

    def process(self, packet: Packet) -> str:
        self.fetch_state()
        costs = self.costs
        now = self.rt.now_ns
        self.rt.charge(costs.helper_call, Category.FRAMEWORK)  # bpf_ktime_get_ns
        # Pacing delay derived from the flow (deterministic spread).
        delay = (packet.key_int * 2654435761) % self.delay_range_ns
        self.rt.charge(10, Category.OTHER)  # slot index arithmetic
        prev_clk = self.wheel.clk
        self.wheel.add((packet.five_tuple, now), now + delay)
        self.enqueued += 1
        # Advance the wheel to 'now' and transmit everything due.
        due = self.wheel.advance_to(now)
        self._charge_slot_scans(self.wheel.clk - prev_clk)
        self.dequeued += len(due)
        return XdpAction.TX if due else XdpAction.DROP

    @property
    def pending(self) -> int:
        return len(self.wheel)
