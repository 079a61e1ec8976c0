"""Case study 2: Count-min sketching ([15], §5.2, Fig. 3e).

Per packet the sketch bumps one counter in each of ``depth`` rows, the
row's column selected by an independent hash of the flow key — the O2
(multiple hash functions) behavior.

- pure eBPF: one software hash per row (no SIMD in the ISA);
- eNetSTL:   ``hw_hash_crc`` when ``depth <= 2`` (a hardware CRC hash
  per row), else the unified ``hash_simd_cnt`` kfunc — all hashes in
  one SIMD batch, counters bumped in place, nothing copied back;
- kernel:    the same minus the kfunc-call overhead.

The counters are a :class:`~repro.datastructs.CountMinSketch` whose
row hash is ``crc_hash32`` on the CRC path and ``fast_hash32`` (the
SIMD batch's and the software hashes') otherwise.  An update and a
point query are one pass each, priced once: the row hashes plus a
counter access per row.
"""

from __future__ import annotations

from ..core.algorithms.hashing import crc_hash32, fast_hash32
from ..datastructs.countmin import CountMinSketch
from ..ebpf.cost_model import Category
from ..net.packet import Packet, XdpAction
from .base import BaseNF

#: Row count below which a per-hash CRC beats the SIMD batch (§6.2).
CRC_CUTOVER_DEPTH = 2


class CountMinNF(BaseNF):
    """Count-min sketch NF: update on every packet, query on demand."""

    name = "count-min sketch"
    category = "sketching"

    def __init__(self, rt, depth: int = 4, width: int = 2048, degrade=None) -> None:
        super().__init__(rt)
        #: One hardware CRC per row instead of the SIMD batch.
        self.crc = not self.is_ebpf and depth <= CRC_CUTOVER_DEPTH
        self.sketch = CountMinSketch(
            depth, width, hash=crc_hash32 if self.crc else fast_hash32
        )
        self.depth = depth
        self.width = width
        #: The sketch's own counter rows.
        self.rows = self.sketch.rows
        #: One pass: a CRC kfunc call (a hash and a counter access per
        #: row), or the ``hash_simd_cnt`` kfunc.
        self._pass_cost = (
            self.prices.crc(depth) + self.costs.counter_update * depth
            if self.crc
            else self.prices.hash_op(depth)
        )
        #: Optional :class:`~repro.nfs.degrade.SketchDegradation` aging
        #: policy, consulted after updates (uncosted control-plane
        #: maintenance — cycle accounting is unchanged either way).
        self.degrade = degrade

    def _count(self, keys) -> None:
        """Charged counter updates for ``keys`` (no aging check)."""
        self.rt.charge(self._pass_cost * len(keys), Category.MULTIHASH)
        update = self.sketch.update
        for key in keys:
            update(key)

    def process(self, packet: Packet) -> str:
        self.fetch_state()
        self.rt.charge(self._pass_cost, Category.MULTIHASH)
        self.sketch.update(packet.key_int)
        if self.degrade is not None:
            self.degrade.maybe_apply(self.rows, self.sketch.total)
        return XdpAction.DROP

    def process_batch(self, packets) -> "dict":
        """Batch fast path: identical to per-packet :meth:`process`.

        All framework and hash charges for the batch land in bulk
        ``charge`` calls; the real counter updates run in a tight loop.
        An aging policy fires at the same update counts as per packet:
        the keys are counted in runs that end where it is due.
        """
        n = len(packets)
        if n == 0:
            return {}
        self.fetch_state(n)
        keys = [pkt.key_int for pkt in packets]
        degrade = self.degrade
        if degrade is None:
            self._count(keys)
            return {XdpAction.DROP: n}
        start = 0
        while start < n:
            stop = min(n, start + degrade.due_in(self.sketch.total))
            self._count(keys[start:stop])
            degrade.maybe_apply(self.rows, self.sketch.total)
            start = stop
        return {XdpAction.DROP: n}

    def estimate(self, key: int) -> int:
        """Point query: minimum over the key's counters (cost-charged)."""
        self.fetch_state()
        self.rt.charge(self._pass_cost, Category.MULTIHASH)
        return self.sketch.estimate(key)

    def true_free_estimate(self, key: int) -> int:
        """Uncosted estimate (for accuracy tests)."""
        return self.sketch.estimate(key)
