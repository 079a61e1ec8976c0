"""Blocked cuckoo hash table (CuckooSwitch's FIB core, [82], [19]).

Each key has two candidate buckets (by two hashes); a bucket is a small
contiguous block of slots holding (signature, key, value) entries so a
probe compares the key against all slots of a bucket — the O6 behavior
eNetSTL's ``find_simd`` accelerates.  Inserts displace entries along a
cuckoo path up to a bounded number of kicks.

Entries are immutable and carry both of their key's bucket indexes: an
update replaces the entry, a copy shares the entries of its original,
and a path search reads an occupant's buckets without rehashing it.
"""

from __future__ import annotations

import copy
from collections import deque
from typing import Any, List, NamedTuple, Optional, Tuple

from ..core.algorithms.hashing import crc_hash32, fast_hash32

EMPTY = None
DEFAULT_SLOTS_PER_BUCKET = 8
MAX_KICKS = 128
_SIG_SEED = 0xC0FFEE


class _Entry(NamedTuple):
    sig: int
    key: int
    value: Any
    #: The key's two candidate buckets, ``index1(key)`` and ``index2(key)``.
    i1: int
    i2: int


class BlockedCuckooTable:
    """A 2-choice, multi-slot-per-bucket cuckoo hash over integer keys."""

    def __init__(
        self,
        n_buckets: int = 1024,
        slots_per_bucket: int = DEFAULT_SLOTS_PER_BUCKET,
    ) -> None:
        if n_buckets <= 0 or n_buckets & (n_buckets - 1):
            raise ValueError("n_buckets must be a positive power of two")
        if slots_per_bucket <= 0:
            raise ValueError("slots_per_bucket must be positive")
        self.n_buckets = n_buckets
        self.slots_per_bucket = slots_per_bucket
        self._buckets: List[List[Optional[_Entry]]] = [
            [EMPTY] * slots_per_bucket for _ in range(n_buckets)
        ]
        self._len = 0
        #: ``(key, index1, index2, signature)`` of the last lookup miss.
        self._missed: Optional[Tuple[int, int, int, int]] = None

    # -- hashing ----------------------------------------------------------

    def index1(self, key: int) -> int:
        return crc_hash32(key, 0) & (self.n_buckets - 1)

    def index2(self, key: int) -> int:
        return crc_hash32(key, 1) & (self.n_buckets - 1)

    @staticmethod
    def signature(key: int) -> int:
        """A compact 32-bit signature compared before full keys."""
        return fast_hash32(key, _SIG_SEED)

    # -- operations --------------------------------------------------------

    def bucket_signatures(self, index: int) -> List[int]:
        """Signatures of a bucket's slots (0 for empty) — the array the
        SIMD compare runs over."""
        return [e.sig if e is not None else 0 for e in self._buckets[index]]

    def probe_bucket(
        self, index: int, key: int, sig: Optional[int] = None
    ) -> Optional[Tuple[int, Any]]:
        """(slot, value) for ``key`` in bucket ``index``, else None.

        ``sig`` is ``signature(key)`` when the caller already has it.
        """
        if sig is None:
            sig = self.signature(key)
        for slot, entry in enumerate(self._buckets[index]):
            if entry is not None and entry.sig == sig and entry.key == key:
                return slot, entry.value
        return None

    def lookup(self, key: int) -> Optional[Any]:
        """The value stored under ``key``, else None.

        Bucket 2 is hashed only when bucket 1 misses.  A miss leaves
        the key's ``(key, index1, index2, signature)`` behind for an
        :meth:`insert` of the same key: the hashes are a pure function
        of the key, so reusing them is exact whatever ran in between.
        """
        sig = fast_hash32(key, _SIG_SEED)
        mask = self.n_buckets - 1
        i1 = crc_hash32(key, 0) & mask
        for entry in self._buckets[i1]:
            if entry is not None and entry.sig == sig and entry.key == key:
                return entry.value
        i2 = crc_hash32(key, 1) & mask
        for entry in self._buckets[i2]:
            if entry is not None and entry.sig == sig and entry.key == key:
                return entry.value
        self._missed = (key, i1, i2, sig)
        return None

    def insert(self, key: int, value: Any) -> bool:
        """Insert or update; False when the table cannot place the key."""
        missed = self._missed
        if missed is not None and missed[0] == key:
            _, i1, i2, sig = missed
        else:
            mask = self.n_buckets - 1
            i1 = crc_hash32(key, 0) & mask
            i2 = crc_hash32(key, 1) & mask
            sig = fast_hash32(key, _SIG_SEED)
        entry = _Entry(sig, key, value, i1, i2)
        buckets = self._buckets
        for index in (i1, i2):
            bucket = buckets[index]
            for slot, e in enumerate(bucket):
                if e is not None and e.sig == sig and e.key == key:
                    bucket[slot] = entry
                    return True
        for index in (i1, i2):
            bucket = buckets[index]
            if EMPTY in bucket:
                bucket[bucket.index(EMPTY)] = entry
                self._len += 1
                return True
        return self._insert_with_path(entry, (i1, i2))

    def _free_slot(self, index: int) -> Optional[int]:
        bucket = self._buckets[index]
        return bucket.index(EMPTY) if EMPTY in bucket else None

    def _insert_with_path(self, entry: _Entry, starts: Tuple[int, int]) -> bool:
        """BFS for an eviction path ending at a free slot.

        Unlike random-walk kicking, a path search never strands a
        displaced entry: either a full path to a free slot exists and
        every move is applied, or the table is left untouched.
        """
        buckets = self._buckets
        visited = set(starts)
        queue = deque((idx, []) for idx in starts)
        while queue and len(visited) <= MAX_KICKS:
            index, path = queue.popleft()
            bucket = buckets[index]
            if EMPTY in bucket:
                # Shift entries along the path, last hop first.
                dst = (index, bucket.index(EMPTY))
                for src in reversed(path):
                    buckets[dst[0]][dst[1]] = buckets[src[0]][src[1]]
                    dst = src
                buckets[dst[0]][dst[1]] = entry
                self._len += 1
                return True
            for slot, occupant in enumerate(bucket):
                alt = occupant.i2 if index == occupant.i1 else occupant.i1
                if alt not in visited:
                    visited.add(alt)
                    queue.append((alt, path + [(index, slot)]))
        return False

    def delete(self, key: int) -> bool:
        sig = self.signature(key)
        for index in (self.index1(key), self.index2(key)):
            hit = self.probe_bucket(index, key, sig)
            if hit is not None:
                self._buckets[index][hit[0]] = EMPTY
                self._len -= 1
                return True
        return False

    def copy(self) -> "BlockedCuckooTable":
        """An independent table in this one's exact state: the same
        entries in the same slots and the same length.  Entries are
        immutable, so the copy shares them and copies only the bucket
        lists.  Inserts search their path breadth-first, so no RNG
        state needs copying."""
        dup = copy.copy(self)
        dup._buckets = [bucket[:] for bucket in self._buckets]
        return dup

    def items(self) -> List[Tuple[int, Any]]:
        """Snapshot of the live ``(key, value)`` pairs, in bucket order
        (control-plane scans: connection eviction on backend failure)."""
        out: List[Tuple[int, Any]] = []
        for bucket in self._buckets:
            for entry in bucket:
                if entry is not None:
                    out.append((entry.key, entry.value))
        return out

    @property
    def capacity(self) -> int:
        return self.n_buckets * self.slots_per_bucket

    @property
    def load_factor(self) -> float:
        return self._len / self.capacity

    def avg_occupancy(self) -> float:
        """Mean occupied slots per bucket (drives probe cost)."""
        return self._len / self.n_buckets

    def __len__(self) -> int:
        return self._len

    def __contains__(self, key: int) -> bool:
        return self.lookup(key) is not None
