"""Maglev load balancer NF ([23]) — a Table 1 "OK" work.

One of the four surveyed works eBPF implements *properly*: per packet
it computes one flow hash and reads one preallocated array slot.  The
reference (kernel) implementation uses the same software hash — there
is no SIMD/multi-hash/bitmap behavior for eNetSTL to replace — so the
three builds differ only in the map-access boundary, and the measured
degradation stays within a few percent.  This NF exists to reproduce
the ✓ rows of Table 1, the counterpoint to the 28 degraded works.
"""

from __future__ import annotations

from typing import Sequence

from ..core.algorithms.hashing import fast_hash32
from ..datastructs.maglev import MaglevTable
from ..ebpf.cost_model import Category
from ..net.packet import Packet, XdpAction
from .base import BaseNF

DEFAULT_BACKENDS = tuple(f"backend-{i}" for i in range(8))
#: Kernel-side direct read of the (percpu) lookup table entry.
KERNEL_TABLE_READ = 6
#: Maglev hashes the 5-tuple once, in software, in every build — the
#: reference implementation is not CRC/SIMD-accelerated.
FLOW_HASH_COST_KEY = "hash_scalar"


class MaglevNF(BaseNF):
    """Consistent-hashing backend selection."""

    name = "Maglev"
    category = "load balancing"

    def __init__(
        self,
        rt,
        backends: Sequence[str] = DEFAULT_BACKENDS,
        table_size: int = 4099,
    ) -> None:
        super().__init__(rt)
        self.all_backends = list(backends)
        self.table_size = table_size
        self.table = MaglevTable(backends, table_size)
        self.dispatched = {name: 0 for name in backends}
        self.failed: set = set()
        #: Times the lookup table was rebuilt after a backend-set change.
        self.rehashes = 0

    def fail_backend(self, name: str) -> None:
        """Take ``name`` out of rotation and rebuild the lookup table.

        This is Maglev's designed degradation path: the table repopulates
        over the survivors with minimal disruption (only the dead
        backend's entries move), so in-flight flows to healthy backends
        keep their affinity.  Control-plane operation — uncosted.
        """
        if name not in self.all_backends:
            raise ValueError(f"unknown backend {name!r}")
        if name in self.failed:
            return
        self.failed.add(name)
        self._rebuild()

    def restore_backend(self, name: str) -> None:
        """Return a recovered backend to rotation (rebuilds the table)."""
        if name not in self.all_backends:
            raise ValueError(f"unknown backend {name!r}")
        if name not in self.failed:
            return
        self.failed.discard(name)
        self._rebuild()

    @property
    def healthy_backends(self) -> list:
        return [b for b in self.all_backends if b not in self.failed]

    def _rebuild(self) -> None:
        healthy = self.healthy_backends
        if not healthy:
            raise ValueError("cannot rebuild: every backend has failed")
        self.table = MaglevTable(healthy, self.table_size)
        self.rehashes += 1

    def select_backend(self, key: int) -> str:
        costs = self.costs
        # Same software hash everywhere (see module docstring).
        self.rt.charge(costs.hash_scalar, Category.OTHER)
        if self.is_ebpf:
            # Array-map read through the helper boundary.
            self.rt.charge(costs.percpu_array_lookup, Category.FRAMEWORK)
        else:
            self.rt.charge(
                KERNEL_TABLE_READ + self.prices.call, Category.FRAMEWORK
            )
        return self.table.lookup(fast_hash32(key, 903))

    def process(self, packet: Packet) -> str:
        backend = self.select_backend(packet.key_int)
        self.dispatched[backend] += 1
        return XdpAction.REDIRECT

    def process_batch(self, packets) -> dict:
        """Batch fast path: cycle-identical to per-packet :meth:`process`.

        Per-packet charges are constant (one software hash plus one
        table read), so the batch charges them in two bulk calls and
        runs the real table lookups in a tight loop.
        """
        n = len(packets)
        if n == 0:
            return {}
        rt = self.rt
        costs = self.costs
        rt.charge(costs.hash_scalar * n, Category.OTHER)
        if self.is_ebpf:
            rt.charge(costs.percpu_array_lookup * n, Category.FRAMEWORK)
        else:
            rt.charge(
                (KERNEL_TABLE_READ + self.prices.call) * n,
                Category.FRAMEWORK,
            )
        table_lookup = self.table.lookup
        dispatched = self.dispatched
        for pkt in packets:
            dispatched[table_lookup(fast_hash32(pkt.key_int, 903))] += 1
        return {XdpAction.REDIRECT: n}
