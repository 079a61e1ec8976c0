"""Vector Bloom filter membership test (DPDK Membership Library, [36]).

The vBF answers "which of v sets does this flow belong to": the k bit
positions come from one base hash with Kirsch-Mitzenmacher derivation
(h_i = h1 + i*h2), and each position contributes one v-lane word that
is ANDed into the candidate mask — the O1 behavior (bitmap encoding +
bit manipulation).  eNetSTL supplies the CRC base hash and a POPCNT /
FFS to extract the matched set; eBPF derives everything in software.
"""

from __future__ import annotations

from ..core.algorithms.bitops import BitOps
from ..datastructs.bloom import VectorBloomFilter
from ..ebpf.cost_model import Category
from ..net.packet import Packet, XdpAction
from .base import BaseNF

#: Deriving h2 + the k per-position indexes from the base hash.
DERIVE_COST = 12
#: The eBPF base hash: the vBF hashes a single u64 flow id (not the
#: full 5-tuple), so the software hash is shorter (calibrated).
EBPF_BASE_HASH = 52
#: Word fetch + AND per probed position.
POSITION_OP_COST = 6


class VbfNF(BaseNF):
    """v-set membership test on the packet path."""

    name = "vector Bloom filter"
    category = "membership test"

    def __init__(
        self, rt, n_sets: int = 8, n_bits: int = 1 << 15, n_hashes: int = 4
    ) -> None:
        super().__init__(rt)
        self.vbf = VectorBloomFilter(n_sets=n_sets, n_bits=n_bits, n_hashes=n_hashes)
        self.bits = BitOps(rt, Category.BITOPS)
        self.hits = 0
        self.misses = 0

    def lookup(self, key: int):
        """Cost-charged set lookup; returns the set id or None."""
        base_hash = EBPF_BASE_HASH if self.is_ebpf else self.prices.crc()
        self.rt.charge(base_hash + DERIVE_COST, Category.MULTIHASH)
        self.rt.charge(POSITION_OP_COST * self.vbf.n_hashes, Category.BITOPS)
        mask = self.vbf.query(key)
        if not mask:
            return None
        # Extract the lowest candidate set with FFS.
        return self.bits.ffs(mask) - 1

    def process(self, packet: Packet) -> str:
        self.fetch_state()
        set_id = self.lookup(packet.key_int)
        if set_id is None:
            self.misses += 1
            return XdpAction.DROP
        self.hits += 1
        return XdpAction.PASS

    def add_member(self, key: int, set_id: int) -> None:
        """Control-plane insert (uncosted)."""
        self.vbf.add(key, set_id)
