"""Skip list (the NFD-HCS key-value store's core, [47]).

A classic probabilistic ordered map.  This module holds the *pure*
algorithm; the NF (:mod:`repro.nfs.kv_skiplist`, both kernel and
eNetSTL modes) re-implements the same traversals on top of the memory
wrapper so its costs and safety behavior are measured.  This class is
that NF's functional oracle: a differential test drives both with one
insert/lookup/delete stream and compares every answer.
"""

from __future__ import annotations

import random
from typing import Any, Iterator, List, Optional, Tuple

MAX_HEIGHT = 16
P = 0.5


class _SkipNode:
    __slots__ = ("key", "value", "forward")

    def __init__(self, key: Any, value: Any, height: int) -> None:
        self.key = key
        self.value = value
        self.forward: List[Optional["_SkipNode"]] = [None] * height


class SkipList:
    """Ordered map with expected O(log n) lookup/insert/delete."""

    def __init__(self, max_height: int = MAX_HEIGHT, seed: int = 7) -> None:
        if not 1 <= max_height <= 64:
            raise ValueError("max_height must be in [1, 64]")
        self.max_height = max_height
        self._rng = random.Random(seed)
        self._head = _SkipNode(None, None, max_height)
        self._height = 1
        self._len = 0

    def _random_height(self) -> int:
        h = 1
        while h < self.max_height and self._rng.random() < P:
            h += 1
        return h

    def _find_predecessors(self, key: Any) -> List[_SkipNode]:
        update = [self._head] * self.max_height
        node = self._head
        for level in range(self._height - 1, -1, -1):
            while node.forward[level] is not None and node.forward[level].key < key:
                node = node.forward[level]
            update[level] = node
        return update

    def lookup(self, key: Any) -> Optional[Any]:
        """Value for ``key``, or None."""
        node = self._head
        for level in range(self._height - 1, -1, -1):
            while node.forward[level] is not None and node.forward[level].key < key:
                node = node.forward[level]
        candidate = node.forward[0]
        if candidate is not None and candidate.key == key:
            return candidate.value
        return None

    def insert(self, key: Any, value: Any) -> bool:
        """Insert or update; returns True when a new key was added."""
        update = self._find_predecessors(key)
        candidate = update[0].forward[0]
        if candidate is not None and candidate.key == key:
            candidate.value = value
            return False
        height = self._random_height()
        if height > self._height:
            self._height = height
        node = _SkipNode(key, value, height)
        for level in range(height):
            node.forward[level] = update[level].forward[level]
            update[level].forward[level] = node
        self._len += 1
        return True

    def delete(self, key: Any) -> bool:
        """Remove ``key``; returns True when it was present."""
        update = self._find_predecessors(key)
        candidate = update[0].forward[0]
        if candidate is None or candidate.key != key:
            return False
        for level in range(len(candidate.forward)):
            if update[level].forward[level] is candidate:
                update[level].forward[level] = candidate.forward[level]
        while self._height > 1 and self._head.forward[self._height - 1] is None:
            self._height -= 1
        self._len -= 1
        return True

    def items(self) -> Iterator[Tuple[Any, Any]]:
        node = self._head.forward[0]
        while node is not None:
            yield node.key, node.value
            node = node.forward[0]

    def __len__(self) -> int:
        return self._len

    def __contains__(self, key: Any) -> bool:
        return self.lookup(key) is not None
