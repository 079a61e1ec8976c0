"""HeavyKeeper top-k counting ([81]).

Per packet: fingerprint + ``depth`` row hashes, bucket read/update per
row, probabilistic exponential decay on fingerprint collisions (O4),
and a top-k heap offer when the estimate grows.  eNetSTL supplies
hardware CRC hashes and pool-based randomness; the eBPF baseline pays
software hashes and a ``bpf_get_prandom_u32`` per decay test.
"""

from __future__ import annotations

from ..core.structures.random_pool import RandomPool
from ..datastructs.heavykeeper import HeavyKeeper
from ..ebpf.cost_model import Category
from ..net.packet import Packet, XdpAction
from .base import BaseNF

#: Short fingerprint hash (derived from the key hash).
FP_DERIVE_SOFT = 10
FP_DERIVE_HW = 6
#: Bucket read + fingerprint compare + counter write per row.
ROW_OP_COST = 14
#: Amortized heap maintenance per packet.
HEAP_AMORTIZED_COST = 9
#: Fixed per-packet eBPF overhead (calibrated).
EBPF_FIXED_OVERHEAD = 0
#: HeavyKeeper's row hash covers fingerprint+column in one pass over a
#: pre-hashed flow id, slightly cheaper than a full 5-tuple xxhash.
EBPF_ROW_HASH = 58

M32 = (1 << 32) - 1


class HeavyKeeperNF(BaseNF):
    """Top-k elephant-flow detector."""

    name = "HeavyKeeper"
    category = "counting"

    def __init__(self, rt, depth: int = 2, width: int = 4096, k: int = 64) -> None:
        super().__init__(rt)
        self.depth = depth
        self.pool = None if self.is_ebpf else RandomPool(rt)
        self.sketch = HeavyKeeper(
            depth=depth, width=width, k=k, rand=self._decay_rand
        )
        self.processed = 0

    def _decay_rand(self) -> float:
        """The decay test's uniform draw, costed per execution mode."""
        if self.is_ebpf:
            return self.rt.prandom_u32(Category.RANDOM) / (M32 + 1)
        return self.pool.draw() / (M32 + 1)

    def process(self, packet: Packet) -> str:
        self.fetch_state()
        if self.is_ebpf:
            self.rt.charge(
                FP_DERIVE_SOFT + EBPF_ROW_HASH * self.depth, Category.MULTIHASH
            )
            if EBPF_FIXED_OVERHEAD:
                self.rt.charge(EBPF_FIXED_OVERHEAD, Category.FRAMEWORK)
        else:
            self.rt.charge(
                FP_DERIVE_HW + self.prices.crc(self.depth), Category.MULTIHASH
            )
        self.rt.charge(ROW_OP_COST * self.depth, Category.BUCKETS)
        self.rt.charge(HEAP_AMORTIZED_COST, Category.FUNDAMENTAL_DS)
        self.sketch.update(packet.key_int)
        self.processed += 1
        return XdpAction.DROP

    def topk(self):
        return self.sketch.topk()

    def estimate(self, key: int) -> int:
        return self.sketch.estimate(key)
