"""EFD-based load balancing (DPDK Elastic Flow Distributor, [20]).

Per packet the balancer maps the flow to a backend: a group hash picks
the flow group, then the group's perfect-hash seed evaluates the value
hash — two hashes total, no key storage (O2 behavior).  The eBPF
baseline computes both in software; eNetSTL/kernel use hardware CRC.
"""

from __future__ import annotations

from ..datastructs.efd import EfdTable
from ..ebpf.cost_model import Category
from ..net.packet import Packet, XdpAction
from .base import BaseNF

#: Seed fetch + modulo on the lookup path.
LOOKUP_MATH_COST = 6
#: Fixed eBPF overhead around the two map-value derefs (calibrated).
EBPF_FIXED_OVERHEAD = 18


class EfdLoadBalancerNF(BaseNF):
    """Stateless-lookup L4 load balancer over an EFD table."""

    name = "EFD load balancer"
    category = "load balancing"

    def __init__(self, rt, n_groups: int = 1024, n_targets: int = 4) -> None:
        super().__init__(rt)
        self.table = EfdTable(n_groups=n_groups, n_targets=n_targets)
        self.dispatched = [0] * n_targets

    def lookup(self, key: int) -> int:
        self.rt.charge(self.prices.crc(2), Category.MULTIHASH)
        if self.is_ebpf:
            self.rt.charge(EBPF_FIXED_OVERHEAD, Category.FRAMEWORK)
        self.rt.charge(LOOKUP_MATH_COST, Category.OTHER)
        return self.table.lookup(key)

    def process(self, packet: Packet) -> str:
        self.fetch_state()
        target = self.lookup(packet.key_int)
        self.dispatched[target] += 1
        return XdpAction.REDIRECT

    def bind_flows(self, keys, target_of) -> int:
        """Insert flow->backend bindings (control-plane path)."""
        placed = 0
        for key in keys:
            if self.table.insert(key, target_of(key)):
                placed += 1
        return placed
