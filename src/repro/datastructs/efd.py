"""Elastic Flow Distributor (DPDK's EFD load-balancing library, [20]).

EFD maps flow keys to small target values (backend ids) *without
storing the keys*: flows hash into groups, and each group searches for
a hash-function index (a "perfect hash" seed) under which every member
key hashes to its assigned target.  Lookup is then just two hashes —
group hash + seeded value hash — independent of group size.

Insertion may need to re-search the group seed (the "elastic" part);
when no seed satisfies the group within the search bound, the group is
reported full (real EFD rebalances; our workloads size groups to
avoid this, and the failure path is exercised by tests).

Each group's seed is the *minimal* valid one, found by a forward
search.  Adding a key can only rule seeds out, so a fresh insert
resumes from the group's floor (the seed its last successful insert
found) instead of from 0; a delete or a re-bind may let a smaller seed
work again, so those restart the search at 0.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional

from ..core.algorithms.hashing import crc_hash32, fast_hash32

DEFAULT_SEED_SEARCH_BOUND = 1 << 16


class EfdTable:
    """Flow -> target mapping via per-group perfect-hash seeds."""

    def __init__(
        self,
        n_groups: int = 256,
        n_targets: int = 4,
        seed_search_bound: int = DEFAULT_SEED_SEARCH_BOUND,
    ) -> None:
        if n_groups <= 0 or n_groups & (n_groups - 1):
            raise ValueError("n_groups must be a positive power of two")
        if not 2 <= n_targets <= 256:
            raise ValueError("n_targets must be in [2, 256]")
        if seed_search_bound <= 0:
            raise ValueError("seed_search_bound must be positive")
        self.n_groups = n_groups
        self.n_targets = n_targets
        self.seed_search_bound = seed_search_bound
        self._group_seed: List[int] = [0] * n_groups
        self._group_members: List[Dict[int, int]] = [dict() for _ in range(n_groups)]
        # Per group, a seed no larger than its members' minimal valid seed.
        self._group_floor: List[int] = [0] * n_groups

    def group_of(self, key: int) -> int:
        return crc_hash32(key, 5) & (self.n_groups - 1)

    def _value_hash(self, key: int, seed: int) -> int:
        return fast_hash32(key, 0x1000 + seed) % self.n_targets

    def _find_seed(
        self, members: Dict[int, int], key: int, start: int
    ) -> Optional[int]:
        """The smallest seed in ``[start, bound)`` valid for ``members``,
        testing the new ``key`` first (it rejects most seeds alone)."""
        value_hash = self._value_hash
        target = members[key]
        for seed in range(start, self.seed_search_bound):
            if value_hash(key, seed) == target and all(
                value_hash(k, seed) == t for k, t in members.items()
            ):
                return seed
        return None

    def copy(self) -> "EfdTable":
        """An independent table with the same seeds, members and floors."""
        dup = copy.copy(self)
        dup._group_seed = self._group_seed[:]
        dup._group_members = [dict(m) for m in self._group_members]
        dup._group_floor = self._group_floor[:]
        return dup

    def insert(self, key: int, target: int) -> bool:
        """Bind ``key`` to ``target``; False when the group is saturated."""
        if not 0 <= target < self.n_targets:
            raise ValueError(f"target {target} out of range")
        group = self.group_of(key)
        members = dict(self._group_members[group])
        start = 0 if key in members else self._group_floor[group]
        members[key] = target
        seed = self._find_seed(members, key, start)
        if seed is None:
            return False
        self._group_members[group] = members
        self._group_seed[group] = seed
        self._group_floor[group] = seed
        return True

    def delete(self, key: int) -> bool:
        group = self.group_of(key)
        if key not in self._group_members[group]:
            return False
        del self._group_members[group][key]
        self._group_floor[group] = 0
        return True

    def lookup(self, key: int) -> int:
        """Target for ``key`` — two hashes, no key storage consulted.

        Like real EFD, unknown keys still return *some* target (the
        whole point: the structure stores no membership information).
        """
        group = self.group_of(key)
        return self._value_hash(key, self._group_seed[group])

    @property
    def n_flows(self) -> int:
        return sum(len(m) for m in self._group_members)
