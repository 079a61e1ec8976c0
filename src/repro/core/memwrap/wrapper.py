"""The eNetSTL memory wrapper (§4.2): proxy ownership + lazy checking.

The wrapper is the set of kfuncs an eBPF program uses to build data
structures over non-contiguous memory: ``node_alloc``, ``set_owner`` /
``unset_owner``, ``node_connect`` / ``node_disconnect``, ``get_next``,
``node_release``, ``node_read`` / ``node_write``.

Two design points from the paper are modeled exactly:

- **Proxy-based ownership**: allocations are adopted by a
  :class:`~repro.core.memwrap.proxy.NodeProxy` persisted in a BPF map,
  so a *variable* number of memories can outlive a program run.
- **Lazy safety checking**: ``get_next`` performs *zero* validity
  checks.  Instead, relationships recorded at ``node_connect`` time are
  used at free time to NULL every pointer aimed at the dying node, so a
  dangling pointer is never observable.  The alternative ("eager")
  strategy — validating each traversal against a table of live
  relationships — is also implemented, for the §6.2 ablation.

Every charge is a :class:`~repro.core.kfunc.LibraryPrices` price for
the runtime's execution mode: eNetSTL pays kfunc-call and refcount
costs on traversal, the kernel baseline a bare pointer dereference and
plain function calls.  Pure eBPF has no equivalent (P1), so the wrapper
refuses that mode.

``seek`` and ``release_all`` are batched forms of ``get_next`` and
``node_release``: one Python call walks (or releases) many nodes, keeps
every per-step guard, and books exactly what the per-call kfuncs would
have charged, as one charge of ``steps x`` the per-call cost.
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Optional

from ...ebpf.cost_model import Category, ExecMode
from ...ebpf.runtime import BpfRuntime
from ..errors import DoubleFreeError
from ..kfunc import LibraryPrices
from .node import Node
from .proxy import NodeProxy

#: A node's u64 key at payload offset 0 (``Node.read_u64(0)``).
_unpack_u64 = struct.Struct("<Q").unpack_from

LAZY = "lazy"
EAGER = "eager"


class MemoryWrapper:
    """Kfunc-level API for non-contiguous memory in eBPF programs."""

    category = Category.NONCONTIG

    def __init__(self, rt: BpfRuntime, checking: str = LAZY) -> None:
        if checking not in (LAZY, EAGER):
            raise ValueError(f"unknown checking strategy {checking!r}")
        if rt.mode is ExecMode.PURE_EBPF:
            raise ValueError("memory wrapper has no eBPF equivalent (P1)")
        self.rt = rt
        self.checking = checking
        self._fail_next_alloc = False   # fault injection for tests
        self.stats = WrapperStats()
        self.prices = LibraryPrices(rt.mode, rt.costs)
        self._charge = rt.charge
        self._get_next_cost = self.prices.get_next(eager=checking == EAGER)

    # -- fault injection ---------------------------------------------------

    def fail_next_alloc(self) -> None:
        """Make the next ``node_alloc`` return None (kmalloc failure)."""
        self._fail_next_alloc = True

    # -- allocation / ownership ---------------------------------------------

    def node_alloc(
        self, n_outs: int, n_ins: int, data_size: int = 0
    ) -> Optional[Node]:
        """Allocate a node; returns None on allocation failure.

        The kfunc is annotated ``KF_ACQUIRE | KF_RET_NULL``: the caller
        owns the returned reference and must null-check it.
        """
        self._charge(self.prices.node_alloc, self.category)
        return self.setup_alloc(n_outs, n_ins, data_size)

    def setup_alloc(
        self, n_outs: int, n_ins: int, data_size: int = 0
    ) -> Optional[Node]:
        """``node_alloc`` without the charge: a control-plane allocation
        made while a structure is set up from user space, outside the
        measured program.  Honours :meth:`fail_next_alloc` and counts in
        ``stats.allocs`` exactly as ``node_alloc`` does.
        """
        if self._fail_next_alloc:
            self._fail_next_alloc = False
            return None
        self.stats.allocs += 1
        return Node(n_outs, n_ins, data_size)

    def set_owner(self, proxy: NodeProxy, node: Node) -> None:
        """Transfer ownership of ``node`` to ``proxy``."""
        self._charge(self.prices.call, self.category)
        proxy.adopt(node)

    def unset_owner(self, proxy: NodeProxy, node: Node) -> None:
        """Detach ``node`` from ``proxy``; frees it if unreferenced."""
        self._charge(self.prices.call, self.category)
        proxy.disown(node)
        if node.refcount == 0:
            self._free(node)

    # -- relationships --------------------------------------------------------

    def node_connect(self, src: Node, out_idx: int, dst: Node, in_idx: int = 0) -> None:
        """``src->outs[out_idx] = dst`` and record the reverse edge.

        The wrapper is necessary because the verifier does not allow
        direct writes to memory returned from kernel functions; the
        recorded reverse edge is what lazy checking consumes at free
        time.
        """
        self._charge(self.prices.node_connect, self.category)
        if not (src.alive and dst.alive and 0 <= out_idx < len(src.outs)):
            src.check_alive()
            dst.check_alive()
            src.check_out_slot(out_idx)
        old = src.outs[out_idx]
        if old is not None:
            old.remove_in_edge(src, out_idx)
        src.outs[out_idx] = dst
        dst.add_in_edge(src, out_idx)
        self.stats.connects += 1

    def node_disconnect(self, src: Node, out_idx: int) -> None:
        """``src->outs[out_idx] = NULL``."""
        self._charge(self.prices.node_disconnect, self.category)
        if not (src.alive and 0 <= out_idx < len(src.outs)):
            src.check_alive()
            src.check_out_slot(out_idx)
        old = src.outs[out_idx]
        if old is not None:
            old.remove_in_edge(src, out_idx)
            src.outs[out_idx] = None

    def get_next(self, node: Node, out_idx: int) -> Optional[Node]:
        """Follow ``node->outs[out_idx]``; returns a new reference.

        With lazy checking this is the hot path and performs no
        validity lookup: the invariant maintained at free time is that
        every out slot is either NULL or points at a live node.  With
        eager checking it additionally probes the (conceptual)
        relationship hash table — the §6.2 ablation quantifies that
        cost.  Either way it is one charge of the summed cost.
        """
        self._charge(self._get_next_cost, self.category)
        outs = node.outs
        if not (node.alive and 0 <= out_idx < len(outs)):
            node.check_alive()
            node.check_out_slot(out_idx)
        nxt = outs[out_idx]
        if nxt is None:
            return None
        if not nxt.alive:
            nxt.check_alive()   # unreachable when the lazy invariant holds
        nxt.refcount += 1
        self.stats.traversals += 1
        return nxt

    def seek(
        self, node: Node, top: int, key: int, preds: List[Node], held: List[Node]
    ) -> None:
        """Descend levels ``top``..0 from ``node`` towards ``key``.

        The skip-list search as one batched ``get_next`` walk.  On each
        level it follows ``outs[level]`` while the next node's u64 at
        offset 0 is below ``key``, then records ``preds[level]``.  Every
        next node visited is a new reference appended to ``held`` (empty
        on entry).  Each step keeps the guards of ``get_next`` plus
        ``read_u64``, and the walk books ``steps x`` the ``get_next``
        cost as one charge -- also when a guard raises, so a failing
        walk has paid through the failing step.
        """
        steps = 0
        hold = held.append
        try:
            for level in range(top, -1, -1):
                while True:
                    steps += 1
                    if not node.alive:
                        node.check_alive()
                    try:
                        nxt = node.outs[level]
                    except IndexError:
                        node.check_out_slot(level)
                        raise
                    if nxt is None:
                        break
                    if not nxt.alive:
                        nxt.check_alive()   # unreachable under the lazy invariant
                    nxt.refcount += 1
                    hold(nxt)
                    try:
                        nxt_key = _unpack_u64(nxt.data)[0]
                    except struct.error:
                        nxt.read_u64(0)     # raises read()'s bounds error
                        raise
                    if nxt_key >= key:
                        break
                    node = nxt
                preds[level] = node
        finally:
            if steps:
                self._charge(steps * self._get_next_cost, self.category)
            self.stats.traversals += len(held)

    # -- release / free ----------------------------------------------------------

    def node_release(self, node: Node) -> None:
        """Return one reference; frees the node when fully released.

        A node is freed only when its refcount reaches zero *and* no
        proxy owns it.  ``KF_RELEASE``-annotated, so the verifier pairs
        it with ``node_alloc`` / ``get_next``.
        """
        self._charge(self.prices.node_release, self.category)
        refs = node.refcount
        if refs <= 0 or not node.alive:
            node.check_alive()
            raise DoubleFreeError(f"node #{node.node_id} released too many times")
        node.refcount = refs - 1
        if refs == 1 and node.owner is None:
            self._free(node)

    def release_all(self, nodes: Iterable[Node]) -> None:
        """``node_release`` over ``nodes``, booked as one charge.

        Each node keeps the double-free / use-after-free guard and the
        free-on-last-reference path (``_free`` charges its own
        teardown).  The ``n x`` release cost is booked even when a
        guard raises, covering every release up to the failing one.
        """
        n = 0
        try:
            for node in nodes:
                n += 1
                refs = node.refcount
                if refs <= 0 or not node.alive:
                    node.check_alive()
                    raise DoubleFreeError(
                        f"node #{node.node_id} released too many times"
                    )
                node.refcount = refs - 1
                if refs == 1 and node.owner is None:
                    self._free(node)
        finally:
            if n:
                self._charge(n * self.prices.node_release, self.category)

    def _free(self, node: Node) -> None:
        """Actually free: lazy teardown of every recorded relationship.

        For each in-edge ``(src, out_idx)`` the recorded reverse index
        tells us ``src->outs[out_idx]`` aims here; NULL it (one
        disconnect's cost each).  For each of our own out-edges, drop
        the reverse entry at the target.  After this, no live pointer
        references the dead node.
        """
        in_edges = node.in_edges()
        for src, out_idx in in_edges:
            if src.alive and src.outs[out_idx] is node:
                src.outs[out_idx] = None
        for out_idx, dst in enumerate(node.outs):
            if dst is not None:
                dst.remove_in_edge(node, out_idx)
                node.outs[out_idx] = None
        node.free_now()
        self.stats.frees += 1
        p = self.prices
        self._charge(
            len(in_edges) * p.node_disconnect + p.node_free, self.category
        )

    # -- payload access -----------------------------------------------------------

    def node_read(self, node: Node, off: int, size: int) -> bytes:
        self._charge(self.prices.node_copy(size), self.category)
        return node.read(off, size)

    def node_write(self, node: Node, off: int, payload: bytes) -> None:
        self._charge(self.prices.node_copy(len(payload)), self.category)
        node.write(off, payload)


class WrapperStats:
    """Operation counters (used by tests and the ablation bench)."""

    __slots__ = ("allocs", "frees", "connects", "traversals")

    def __init__(self) -> None:
        self.allocs = 0
        self.frees = 0
        self.connects = 0
        self.traversals = 0
