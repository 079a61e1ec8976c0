"""Case study 1: skip-list key-value query in NFD-HCS ([47], Fig. 3a/b).

The paper's P1 example: a skip list needs a *variable* number of
persisted dynamic allocations plus pointer routing between them, which
pure eBPF cannot express — so this NF has **no eBPF variant**.  The
eNetSTL variant builds the skip list on the memory wrapper (§4.2):
``node_alloc`` + ``set_owner`` for allocation, ``node_connect`` /
``node_disconnect`` for forward pointers, reference-counted
``get_next`` / ``node_release`` for traversal, lazy safety checking at
free time.  The kernel variant runs the identical structure with raw
pointer costs.

Keys are 64-bit (hashes of the 32B application keys); values model the
paper's 128B payloads for copy-cost purposes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.memwrap import LAZY, MemoryWrapper, Node, NodeProxy
from ..ebpf.cost_model import Category, ExecMode
from ..net.packet import Packet, XdpAction
from .base import BaseNF

MAX_HEIGHT = 16
VALUE_SIZE = 128

OP_LOOKUP = "lookup"
OP_UPDATE_DELETE = "update_delete"


class SkipListKV(BaseNF):
    """Skip-list key-value store over the eNetSTL memory wrapper."""

    name = "skip-list KV (NFD-HCS)"
    category = "key-value query"
    supported_modes = (ExecMode.KERNEL, ExecMode.ENETSTL)

    def __init__(
        self,
        rt,
        max_height: int = MAX_HEIGHT,
        op_mix: str = OP_LOOKUP,
        checking: str = LAZY,
    ) -> None:
        super().__init__(rt)
        if op_mix not in (OP_LOOKUP, OP_UPDATE_DELETE):
            raise ValueError(f"unknown op mix {op_mix!r}")
        self.max_height = max_height
        self.op_mix = op_mix
        self.wrapper = MemoryWrapper(rt, checking=checking)
        self.proxy = NodeProxy("skiplist")
        # Head: a sentinel with max_height forward slots, owned by the
        # proxy and persisted in the BPF map alongside it.
        self.head = Node(max_height, 0, 0)
        self.proxy.adopt(self.head)
        self.height = 1
        self._len = 0
        self._toggle = 0

    # -- helpers ----------------------------------------------------------

    def _search(self, key: int) -> Tuple[List[Node], List[Node]]:
        """Walk down the levels; returns (predecessors, held refs).

        The walk is one :meth:`MemoryWrapper.seek` call, charged as one
        ``get_next`` (zero safety checks under lazy checking) per step;
        each held node's key is compared once, so the compares are
        booked as one charge of ``len(held)`` compares.
        """
        held: List[Node] = []
        update: List[Node] = [self.head] * self.max_height
        self.wrapper.seek(self.head, self.height - 1, key, update, held)
        if held:
            self.rt.charge(
                self.costs.cmp_scalar_per_item * len(held), Category.NONCONTIG
            )
        return update, held

    # -- operations -----------------------------------------------------------

    def lookup(self, key: int) -> Optional[bytes]:
        """Value bytes for ``key``, or None."""
        w = self.wrapper
        update, held = self._search(key)
        try:
            candidate = w.get_next(update[0], 0)
            if candidate is None:
                return None
            try:
                self.rt.charge(self.costs.cmp_scalar_per_item, Category.NONCONTIG)
                if candidate.read_u64(0) != key:
                    return None
                return candidate.read(8, VALUE_SIZE)
            finally:
                w.node_release(candidate)
        finally:
            w.release_all(held)

    def insert(self, key: int, value: bytes) -> bool:
        """Insert or update ``key``; False on allocation failure."""
        if len(value) > VALUE_SIZE:
            raise ValueError(f"value exceeds {VALUE_SIZE} bytes")
        w = self.wrapper
        update, held = self._search(key)
        try:
            candidate = w.get_next(update[0], 0)
            if candidate is not None:
                try:
                    self.rt.charge(self.costs.cmp_scalar_per_item, Category.NONCONTIG)
                    if candidate.read_u64(0) == key:
                        w.node_write(candidate, 8, value)
                        return True
                finally:
                    w.node_release(candidate)
            height = self._random_height()
            node = w.node_alloc(height, height, 8 + VALUE_SIZE)
            if node is None:
                return False   # verifier-mandated NULL check path
            w.set_owner(self.proxy, node)
            node.write_u64(key, 0)
            w.node_write(node, 8, value)
            if height > self.height:
                self.height = height
            for level in range(height):
                nxt = w.get_next(update[level], level)
                if nxt is not None:
                    w.node_connect(node, level, nxt, level)
                    w.node_release(nxt)
                w.node_connect(update[level], level, node, level)
            w.node_release(node)
            self._len += 1
            return True
        finally:
            w.release_all(held)

    def delete(self, key: int) -> bool:
        """Remove ``key``; True when it was present."""
        w = self.wrapper
        update, held = self._search(key)
        try:
            candidate = w.get_next(update[0], 0)
            if candidate is None:
                return False
            self.rt.charge(self.costs.cmp_scalar_per_item, Category.NONCONTIG)
            if candidate.read_u64(0) != key:
                w.node_release(candidate)
                return False
            for level in range(len(candidate.outs)):
                if update[level].outs[level] is candidate:
                    nxt = w.get_next(candidate, level)
                    if nxt is not None:
                        w.node_connect(update[level], level, nxt, level)
                        w.node_release(nxt)
                    else:
                        w.node_disconnect(update[level], level)
            w.unset_owner(self.proxy, candidate)
            w.node_release(candidate)   # the free happens here (or when
            self._len -= 1              # the last held ref drops below)
            while self.height > 1 and self.head.outs[self.height - 1] is None:
                self.height -= 1
            return True
        finally:
            w.release_all(held)

    def _random_height(self) -> int:
        h = 1
        while h < self.max_height and self.rt.raw_random() < 0.5:
            h += 1
        return h

    # -- packet path ------------------------------------------------------------

    def process(self, packet: Packet) -> str:
        self.fetch_state()
        key = packet.key_int & ((1 << 64) - 1)
        if self.op_mix == OP_LOOKUP:
            self.lookup(key)
        else:
            # Update and delete packets arrive 1:1 (§6.2 CS1): keep the
            # population stable by inserting absent keys and deleting
            # present ones.
            self._toggle ^= 1
            if self._toggle:
                self.insert(key, b"\x00" * 16)
            else:
                self.delete(key)
        return XdpAction.DROP

    def preload(self, keys) -> None:
        """Insert ``keys`` (16-byte zero values) through the charged
        ``insert`` path; callers measure deltas.

        The charged reference for :meth:`populate`: every search,
        allocation and link is booked, and the golden Fig. 3(a)/(b)
        accounting tests pin those cycles.
        """
        for key in keys:
            self.insert(key & ((1 << 64) - 1), b"\x00" * 16)

    def populate(self, keys) -> None:
        """Build the empty list from ``keys`` without charging a cycle.

        Uncharged set-up: a control plane fills the table from user
        space before the measured program runs.  The list ends as
        :meth:`preload` leaves it: the same nodes allocated in the same
        order (so the same ids), keys, payloads, per-level links and
        in-edges, zero refcounts, ``height`` and length, and the same
        runtime PRNG draws -- one :meth:`_random_height` per new key in
        first-occurrence order.  A pending
        :meth:`MemoryWrapper.fail_next_alloc` drops the key it fails, as
        ``insert`` does.  Only the cycle counter and the wrapper's
        connect/traversal counts differ.
        """
        if self._len:
            raise ValueError("populate builds an empty list")
        rand = self.rt.raw_random
        max_height = self.max_height
        alloc = self.wrapper.setup_alloc
        adopt = self.proxy.adopt
        top = self.height
        placed = {}
        for key in keys:
            key &= (1 << 64) - 1
            if key in placed:
                continue
            height = 1   # _random_height, inlined
            while height < max_height and rand() < 0.5:
                height += 1
            node = alloc(height, height, 8 + VALUE_SIZE)
            if node is None:
                continue
            adopt(node)
            # The key, as write_u64 lays it out; the payload stays the
            # zeros the allocation starts with.
            node.data[:8] = key.to_bytes(8, "little")
            node.refcount = 0   # the allocating reference, returned
            placed[key] = node
            if height > top:
                top = height
        self.height = top
        tails = [self.head] * max_height
        for key in sorted(placed):
            node = placed[key]
            for level in range(len(node.outs)):
                prev = tails[level]
                prev.outs[level] = node
                node.add_in_edge(prev, level)
                tails[level] = node
        self._len = len(placed)

    def __len__(self) -> int:
        return self._len
