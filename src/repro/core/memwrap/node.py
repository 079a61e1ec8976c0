"""Dynamically allocated node memory for the memory wrapper.

A :class:`Node` models one ``bpf_obj_new``-style allocation extended
with the metadata the wrapper needs (§4.2 / Listing 3):

- ``outs``: a fixed number of outgoing pointer slots (``A->next = B``),
- ``ins``: bookkeeping of which (node, out-slot) pairs point *at* this
  node — the recorded relationship information that makes **lazy safety
  checking** possible: when a node is freed, every out-slot aimed at it
  is set to NULL using this reverse index, so a later ``get_next`` can
  never observe a dangling pointer,
- a reference count (``get_next`` borrows references; ``node_release``
  returns them),
- a data payload.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Set, Tuple

from ..errors import InvalidSlotError, UseAfterFreeError

_node_ids = itertools.count(1)


class Node:
    """One unit of non-contiguous memory managed by the wrapper."""

    __slots__ = (
        "node_id",
        "outs",
        "_in_edges",
        "data",
        "refcount",
        "alive",
        "owner",
    )

    def __init__(self, n_outs: int, n_ins: int, data_size: int) -> None:
        if n_outs < 0 or n_ins < 0:
            raise ValueError("slot counts must be non-negative")
        if data_size < 0:
            raise ValueError("data_size must be non-negative")
        self.node_id: int = next(_node_ids)
        self.outs: List[Optional["Node"]] = [None] * n_outs
        # Reverse index: set of (source node, out-slot index) pairs.
        # ``n_ins`` bounds how many distinct sources may point here,
        # mirroring the fixed ``ins[]`` array of the paper's node layout.
        self._in_edges: Set[Tuple["Node", int]] = set()
        self.data = bytearray(data_size)
        self.refcount: int = 1          # the allocating program's reference
        self.alive: bool = True
        self.owner = None               # NodeProxy once adopted

    # -- guards ----------------------------------------------------------

    def check_alive(self) -> None:
        if not self.alive:
            raise UseAfterFreeError(f"node #{self.node_id} has been freed")

    def check_out_slot(self, idx: int) -> None:
        if not 0 <= idx < len(self.outs):
            raise InvalidSlotError(
                f"node #{self.node_id} has {len(self.outs)} out slots; got {idx}"
            )

    # -- edge bookkeeping ---------------------------------------------------

    def add_in_edge(self, src: "Node", out_idx: int) -> None:
        self._in_edges.add((src, out_idx))

    def remove_in_edge(self, src: "Node", out_idx: int) -> None:
        self._in_edges.discard((src, out_idx))

    def in_edges(self) -> Set[Tuple["Node", int]]:
        return set(self._in_edges)

    @property
    def in_degree(self) -> int:
        return len(self._in_edges)

    def free_now(self) -> None:
        """Mark the node freed and drop its bookkeeping.

        Only the wrapper calls this, after lazy teardown has nulled all
        inbound pointers.
        """
        self.alive = False
        self._in_edges.clear()

    # -- payload access ---------------------------------------------------

    def read(self, off: int, size: int) -> bytes:
        self.check_alive()
        if off < 0 or size < 0 or off + size > len(self.data):
            raise IndexError(
                f"node #{self.node_id}: read [{off}:{off + size}] out of bounds "
                f"(data size {len(self.data)})"
            )
        return bytes(self.data[off : off + size])

    def write(self, off: int, payload: bytes) -> None:
        self.check_alive()
        if off < 0 or off + len(payload) > len(self.data):
            raise IndexError(
                f"node #{self.node_id}: write [{off}:{off + len(payload)}] out of "
                f"bounds (data size {len(self.data)})"
            )
        self.data[off : off + len(payload)] = payload

    def read_u64(self, off: int = 0) -> int:
        data = self.data
        if not self.alive or off < 0 or off + 8 > len(data):
            self.read(off, 8)   # raises the same guard error as read()
        return int.from_bytes(data[off : off + 8], "little")

    def write_u64(self, value: int, off: int = 0) -> None:
        self.write(off, (value & ((1 << 64) - 1)).to_bytes(8, "little"))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "freed"
        return f"Node(#{self.node_id}, {state}, ref={self.refcount})"
