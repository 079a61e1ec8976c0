"""Extension NF: an LRU flow cache on the memory wrapper (§4.5).

The paper's "eNetSTL for future NFs" argument names "LRU based on
lists" as a structure the memory wrapper newly enables: a doubly-linked
recency list needs a variable number of persisted allocations plus
pointer rewiring on every touch — exactly the P1 shape pure eBPF cannot
express.  This NF implements it: an in-kernel flow cache whose index is
a BPF hash map and whose recency order lives in wrapper-managed nodes.

Like the skip list, it has no ``PURE_EBPF`` variant.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.memwrap import LAZY, MemoryWrapper, Node, NodeProxy
from ..ebpf.cost_model import Category, ExecMode
from ..net.packet import Packet, XdpAction
from .base import BaseNF

NEXT, PREV = 0, 1
VALUE_SIZE = 16


class LruCacheNF(BaseNF):
    """Flow cache with least-recently-used eviction."""

    name = "LRU flow cache (memory wrapper)"
    category = "key-value query"
    supported_modes = (ExecMode.KERNEL, ExecMode.ENETSTL)

    def __init__(self, rt, capacity: int = 1024, checking: str = LAZY) -> None:
        super().__init__(rt)
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.wrapper = MemoryWrapper(rt, checking=checking)
        self.proxy = NodeProxy("lru")
        # Sentinels: head.next = most recent, tail.prev = least recent.
        self.head = Node(2, 2, 0)
        self.tail = Node(2, 2, 0)
        self.proxy.adopt(self.head)
        self.proxy.adopt(self.tail)
        self.wrapper.node_connect(self.head, NEXT, self.tail, PREV)
        self.wrapper.node_connect(self.tail, PREV, self.head, NEXT)
        # The index: key -> node (a BPF hash map holding kptrs).
        self._index: Dict[int, Node] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- list surgery ------------------------------------------------------

    def _unlink(self, node: Node) -> None:
        w = self.wrapper
        nxt = w.get_next(node, NEXT)
        prv = w.get_next(node, PREV)
        assert nxt is not None and prv is not None
        w.node_connect(prv, NEXT, nxt, PREV)
        w.node_connect(nxt, PREV, prv, NEXT)
        w.node_disconnect(node, NEXT)
        w.node_disconnect(node, PREV)
        w.node_release(nxt)
        w.node_release(prv)

    def _push_front(self, node: Node) -> None:
        w = self.wrapper
        first = w.get_next(self.head, NEXT)
        assert first is not None
        w.node_connect(node, NEXT, first, PREV)
        w.node_connect(first, PREV, node, NEXT)
        w.node_connect(self.head, NEXT, node, PREV)
        w.node_connect(node, PREV, self.head, NEXT)
        w.node_release(first)

    def _touch(self, node: Node) -> None:
        """Move ``node`` to the front of the recency list."""
        self._unlink(node)
        self._push_front(node)

    # -- cache operations -----------------------------------------------------

    def _index_lookup(self, key: int) -> Optional[Node]:
        self.fetch_state()
        return self._index.get(key)

    def get(self, key: int) -> Optional[bytes]:
        """Lookup + recency touch; None on miss."""
        node = self._index_lookup(key)
        if node is None:
            self.misses += 1
            return None
        self._touch(node)
        self.hits += 1
        return node.read(8, VALUE_SIZE)

    def put(self, key: int, value: bytes) -> bool:
        """Insert or refresh; evicts the LRU entry at capacity."""
        if len(value) > VALUE_SIZE:
            raise ValueError(f"value exceeds {VALUE_SIZE} bytes")
        w = self.wrapper
        node = self._index_lookup(key)
        if node is not None:
            w.node_write(node, 8, value)
            self._touch(node)
            return True
        if len(self._index) >= self.capacity:
            self._evict_lru()
        node = w.node_alloc(2, 2, 8 + VALUE_SIZE)
        if node is None:
            return False
        w.set_owner(self.proxy, node)
        node.write_u64(key, 0)
        w.node_write(node, 8, value)
        self._push_front(node)
        w.node_release(node)
        self.rt.charge(self.costs.map_update, Category.FRAMEWORK)
        self._index[key] = node
        return True

    def _evict_lru(self) -> None:
        w = self.wrapper
        victim = w.get_next(self.tail, PREV)
        assert victim is not None and victim is not self.head
        key = victim.read_u64(0)
        self._unlink(victim)
        self.rt.charge(self.costs.map_delete, Category.FRAMEWORK)
        del self._index[key]
        w.unset_owner(self.proxy, victim)
        w.node_release(victim)
        self.evictions += 1

    # -- packet path --------------------------------------------------------------

    def process(self, packet: Packet) -> str:
        """Cache-through: hit -> PASS; miss -> insert and DROP."""
        key = packet.key_int & ((1 << 64) - 1)
        if self.get(key) is not None:
            return XdpAction.PASS
        self.put(key, b"\x00" * 8)
        return XdpAction.DROP

    def __len__(self) -> int:
        return len(self._index)

    def recency_keys(self) -> list:
        """Keys from most to least recent (test helper; uncosted)."""
        keys = []
        node = self.head.outs[NEXT]
        while node is not None and node is not self.tail:
            keys.append(node.read_u64(0))
            node = node.outs[NEXT]
        return keys
