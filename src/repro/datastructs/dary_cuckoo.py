"""d-ary cuckoo hash table ([27]).

Each key has ``d`` candidate cells, one per hash function, each cell a
single (key, value) slot.  Lookup probes the ``d`` cells — the
compare-after-hashing pattern eNetSTL unifies in ``hash_simd_cmp``.
Insertion displaces along a bounded random walk over the d choices.
"""

from __future__ import annotations

import random
from typing import Any, List, Optional

from ..core.algorithms.hashing import fast_hash32

MAX_WALK = 256
EMPTY_KEY = 0


class DaryCuckooTable:
    """d hash functions over d single-slot subtables (integer keys > 0)."""

    def __init__(self, d: int = 4, width: int = 1024, seed: int = 23) -> None:
        if not 2 <= d <= 8:
            raise ValueError("d must be in [2, 8]")
        if width <= 0:
            raise ValueError("width must be positive")
        self.d = d
        self.width = width
        self.keys: List[List[int]] = [[EMPTY_KEY] * width for _ in range(d)]
        self.values: List[List[Any]] = [[None] * width for _ in range(d)]
        self._rng = random.Random(seed)
        self._len = 0

    def cell(self, row: int, key: int) -> int:
        # Seeds 0..d-1: the hash family of the SIMD batch behind the
        # unified hash_cmp kfunc, which probes through find_row.
        return fast_hash32(key, row) % self.width

    def _check_key(self, key: int) -> None:
        if key == EMPTY_KEY:
            raise ValueError("key 0 is reserved as the empty marker")

    def lookup(self, key: int) -> Optional[Any]:
        row = self.find_row(key)
        return None if row < 0 else self.values[row][self.cell(row, key)]

    def find_row(self, key: int) -> int:
        """Row index holding ``key``, or -1 (the hash_cmp result): the
        one d-ary probe."""
        self._check_key(key)
        for row in range(self.d):
            if self.keys[row][self.cell(row, key)] == key:
                return row
        return -1

    def insert(self, key: int, value: Any) -> bool:
        self._check_key(key)
        row = self.find_row(key)
        if row >= 0:
            self.values[row][self.cell(row, key)] = value
            return True
        cur_key, cur_val = key, value
        last_row = -1
        trail = []   # (row, col) of each displacement, for rollback
        for _ in range(MAX_WALK):
            for row in range(self.d):
                col = self.cell(row, cur_key)
                if self.keys[row][col] == EMPTY_KEY:
                    self.keys[row][col] = cur_key
                    self.values[row][col] = cur_val
                    self._len += 1
                    return True
            # Displace a random occupant from a candidate cell (avoiding
            # an immediate ping-pong with the row we just came from).
            choices = [r for r in range(self.d) if r != last_row]
            row = self._rng.choice(choices)
            col = self.cell(row, cur_key)
            victim_key = self.keys[row][col]
            victim_val = self.values[row][col]
            self.keys[row][col] = cur_key
            self.values[row][col] = cur_val
            trail.append((row, col))
            cur_key, cur_val = victim_key, victim_val
            last_row = row
        # Walk failed: undo every displacement in reverse so the table
        # is exactly as before (no entry is ever lost).
        for row, col in reversed(trail):
            prev_key, prev_val = self.keys[row][col], self.values[row][col]
            self.keys[row][col] = cur_key
            self.values[row][col] = cur_val
            cur_key, cur_val = prev_key, prev_val
        return False

    def delete(self, key: int) -> bool:
        self._check_key(key)
        row = self.find_row(key)
        if row < 0:
            return False
        col = self.cell(row, key)
        self.keys[row][col] = EMPTY_KEY
        self.values[row][col] = None
        self._len -= 1
        return True

    @property
    def capacity(self) -> int:
        return self.d * self.width

    @property
    def load_factor(self) -> float:
        return self._len / self.capacity

    def __len__(self) -> int:
        return self._len

    def __contains__(self, key: int) -> bool:
        return self.find_row(key) >= 0
