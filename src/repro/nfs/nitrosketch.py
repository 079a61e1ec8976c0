"""NitroSketch ([45], Fig. 3d).

NitroSketch makes count-min-style sketching cheap by updating each row
only with probability ``p`` (scaling the increment by ``1/p`` keeps the
estimator unbiased) — the O4 behavior (updating based on a random
number).

- pure eBPF: one ``bpf_get_prandom_u32`` helper call per packet (the
  optimized formulation that derives per-row sampling bits from a
  single draw) plus a threshold compare per row; sampled rows hash with
  software hashes;
- eNetSTL: *geometric* sampling from ``geo_rpool`` — each row keeps a
  countdown of packets until its next update, so the common case per
  row is a single decrement; fired rows draw fresh skip counts in one
  batched kfunc and update through ``hw_hash_crc``;
- kernel: same as eNetSTL minus kfunc overheads.

The counters are a :class:`~repro.datastructs.CountMinSketch` (row hash
``fast_hash32`` in pure eBPF, ``crc_hash32`` otherwise); a fired row
adds ``1/p`` at the key's column.
"""

from __future__ import annotations

from ..core.algorithms.hashing import crc_hash32, fast_hash32
from ..core.structures.random_pool import GeoRandomPool
from ..datastructs.countmin import CountMinSketch
from ..ebpf.cost_model import Category
from ..net.packet import Packet, XdpAction
from .base import BaseNF

#: Per-row threshold compare + branch in the eBPF per-packet loop.
ROW_TEST_COST = 3
#: eBPF row update extra: map-value offset arithmetic + verifier bounds
#: re-checks around the sampled row's counter access (calibrated).
EBPF_UPDATE_EXTRA = 14
#: Per-row countdown decrement in the geometric formulation.
COUNTDOWN_COST = 1


class NitroSketchNF(BaseNF):
    """Probabilistically-updated count-min sketch."""

    name = "NitroSketch"
    category = "sketching"

    def __init__(
        self, rt, depth: int = 8, width: int = 2048, update_prob: float = 0.25
    ) -> None:
        super().__init__(rt)
        if not 0.0 < update_prob <= 1.0:
            raise ValueError("update_prob must be in (0, 1]")
        self.sketch = CountMinSketch(
            depth, width, hash=fast_hash32 if self.is_ebpf else crc_hash32
        )
        self.depth = depth
        self.width = width
        self.p = update_prob
        #: The sketch's own counter rows.
        self.rows = self.sketch.rows
        #: Cycles per fired row: its hash plus the counter update.
        self._row_cost = self.prices.row_hash + self.costs.counter_update
        if self.is_ebpf:
            self._row_cost += EBPF_UPDATE_EXTRA
            self.pool = None
            self._countdown = None
        else:
            self.pool = GeoRandomPool(rt, update_prob)
            # Packets remaining until each row's next update.
            self._countdown = list(self.pool.draw_many(depth))

    def _update_rows(self, fired, key: int) -> None:
        """Add ``1/p`` to ``key``'s counter in each fired row, through
        one library crossing (the kernel inlines it)."""
        self.rt.charge(
            self._row_cost * len(fired) + self.prices.crossing,
            Category.MULTIHASH,
        )
        column = self.sketch.column
        rows = self.rows
        inc = 1.0 / self.p
        for row in fired:
            rows[row][column(key, row)] += inc

    def process(self, packet: Packet) -> str:
        self.fetch_state()
        rt = self.rt
        depth = self.depth
        if self.is_ebpf:
            # One helper draw; rows sample from its bits.
            draw = rt.prandom_u32(Category.RANDOM)
            rt.charge(ROW_TEST_COST * depth, Category.RANDOM)
            threshold = int(self.p * (1 << 32))
            fired = [
                row for row in range(depth) if fast_hash32(draw, row) < threshold
            ]
            if fired:
                self._update_rows(fired, packet.key_int)
        else:
            rt.charge(COUNTDOWN_COST * depth, Category.RANDOM)
            countdown = self._countdown
            fired = []
            for row in range(depth):
                countdown[row] -= 1
                if countdown[row] <= 0:
                    fired.append(row)
            if fired:
                self._update_rows(fired, packet.key_int)
                for row, skip in zip(fired, self.pool.draw_many(len(fired))):
                    countdown[row] = skip
        self.sketch.total += 1
        return XdpAction.DROP

    def estimate(self, key: int) -> float:
        """Median-free NitroSketch estimate: min over rows (uncosted)."""
        return self.sketch.estimate(key)
