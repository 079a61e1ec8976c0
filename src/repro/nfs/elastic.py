"""Extension NF: ElasticSketch ([80]).

A surveyed sketching work combining O2 (hashing), O3 (the heavy-part
fast path), and O6 (bucket compares).  Per packet: one heavy-part hash
+ key compare; on collision or fall-through, a light-part hash +
counter update; on eviction, a light-part merge.  eNetSTL supplies CRC
hashes and the compare primitive; the eBPF baseline is all-software.
"""

from __future__ import annotations

from ..datastructs.elastic import ElasticSketch
from ..ebpf.cost_model import Category
from ..net.packet import Packet, XdpAction
from .base import BaseNF

#: Heavy-bucket read + key compare + vote update.
BUCKET_OP = 14
#: Light-part counter bump.
LIGHT_OP = 6
#: Eviction: counter merge + bucket rewrite.
EVICT_OP = 22


class ElasticSketchNF(BaseNF):
    """Heavy/light flow measurement on the packet path."""

    name = "ElasticSketch"
    category = "sketching"

    def __init__(
        self, rt, heavy_buckets: int = 2048, light_width: int = 8192
    ) -> None:
        super().__init__(rt)
        self.sketch = ElasticSketch(heavy_buckets, light_width)
        self.paths = {"heavy": 0, "light": 0, "evict": 0}

    def _charge_hash(self) -> None:
        self.rt.charge(self.prices.crc(), Category.MULTIHASH)

    def process(self, packet: Packet) -> str:
        self.fetch_state()
        key = packet.key_int
        self._charge_hash()                       # heavy-part hash
        self.rt.charge(BUCKET_OP, Category.FUNDAMENTAL_DS)
        path = self.sketch.update(key)
        if path != "heavy":
            self._charge_hash()                   # light-part hash
            self.rt.charge(
                EVICT_OP if path == "evict" else LIGHT_OP, Category.BUCKETS
            )
        self.paths[path] += 1
        return XdpAction.DROP

    def estimate(self, key: int) -> int:
        return self.sketch.estimate(key)
