"""Proxy-based memory ownership management (§4.2).

The eBPF verifier requires the number of dynamic allocations persisted
in a BPF map to be fixed in advance, which rules out data structures of
unpredictable size (P1).  eNetSTL's answer is a *proxy*: one data
structure that owns every dynamically allocated node, itself persisted
in a BPF map.  Persisting one object (the proxy) persists the variable
set of memories it manages.
"""

from __future__ import annotations

from typing import Iterator, Set

from ..errors import OwnershipError
from .node import Node


class NodeProxy:
    """Owns a variable number of nodes on behalf of an eBPF program.

    Conceptually stored in a BPF map (so its nodes persist across
    program invocations).  Ownership means: the node is not freed when
    the program's references drop to zero — only after ``disown``.
    """

    def __init__(self, name: str = "proxy") -> None:
        self.name = name
        self._owned: Set[Node] = set()

    def adopt(self, node: Node) -> None:
        """Transfer ownership of ``node`` to this proxy (``set_owner``)."""
        node.check_alive()
        if node.owner is self:
            raise OwnershipError(f"node #{node.node_id} already owned by {self.name}")
        if node.owner is not None:
            raise OwnershipError(
                f"node #{node.node_id} is owned by another proxy"
            )
        node.owner = self
        self._owned.add(node)

    def disown(self, node: Node) -> None:
        """Detach ``node`` (``unset_owner``); it is freed once its
        refcount reaches zero."""
        node.check_alive()
        if node.owner is not self:
            raise OwnershipError(
                f"node #{node.node_id} is not owned by proxy {self.name}"
            )
        node.owner = None
        self._owned.discard(node)

    def owns(self, node: Node) -> bool:
        return node in self._owned

    def __len__(self) -> int:
        return len(self._owned)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._owned)

    def drop_all(self, wrapper) -> int:
        """Free every owned node (map teardown semantics).

        Mirrors a BPF map being destroyed: the proxy releases ownership
        of everything it manages.  Returns the number of nodes freed.
        """
        freed = 0
        for node in list(self._owned):
            wrapper.unset_owner(self, node)
            # The program's original reference was returned when it
            # called node_release; ownership was the only thing keeping
            # the node alive, so disowning frees it via the wrapper.
            if node.alive and node.refcount == 0:
                raise AssertionError("unset_owner should have freed the node")
            freed += 1
        return freed
