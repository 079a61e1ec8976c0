"""Cuckoo filter (membership test, [25]).

Stores short fingerprints in a blocked table with partial-key cuckoo
hashing: an item's alternate bucket is derived from its current bucket
and fingerprint, so relocation never needs the original key.  Supports
insert, lookup, and delete with a bounded false-positive rate.
"""

from __future__ import annotations

import copy
import random
from typing import List, Optional

from ..core.algorithms.hashing import crc_hash32, fast_hash32

DEFAULT_SLOTS_PER_BUCKET = 4
MAX_KICKS = 256


class CuckooFilter:
    """Approximate set over integer keys with deletion support."""

    def __init__(
        self,
        n_buckets: int = 1024,
        slots_per_bucket: int = DEFAULT_SLOTS_PER_BUCKET,
        fingerprint_bits: int = 16,
        seed: int = 13,
    ) -> None:
        if n_buckets <= 0 or n_buckets & (n_buckets - 1):
            raise ValueError("n_buckets must be a positive power of two")
        if not 4 <= fingerprint_bits <= 32:
            raise ValueError("fingerprint_bits must be in [4, 32]")
        self.n_buckets = n_buckets
        self.slots_per_bucket = slots_per_bucket
        self.fingerprint_bits = fingerprint_bits
        self._fp_mask = (1 << fingerprint_bits) - 1
        self._buckets: List[List[int]] = [
            [0] * slots_per_bucket for _ in range(n_buckets)
        ]
        self._rng = random.Random(seed)
        self._len = 0

    # -- hashing -----------------------------------------------------------

    def fingerprint(self, key: int) -> int:
        fp = fast_hash32(key, 0xF00D) & self._fp_mask
        return fp or 1  # 0 means empty

    def index1(self, key: int) -> int:
        return crc_hash32(key, 2) & (self.n_buckets - 1)

    def alt_index(self, index: int, fp: int) -> int:
        """Partial-key alternate bucket: i2 = i1 xor hash(fp)."""
        return (index ^ crc_hash32(fp, 3)) & (self.n_buckets - 1)

    # -- operations -----------------------------------------------------------

    def bucket(self, index: int) -> List[int]:
        """The fingerprint array of a bucket (SIMD compare target)."""
        return self._buckets[index]

    def contains(self, key: int) -> bool:
        fp = self.fingerprint(key)
        i1 = self.index1(key)
        i2 = self.alt_index(i1, fp)
        return fp in self._buckets[i1] or fp in self._buckets[i2]

    def insert(self, key: int) -> bool:
        # fingerprint, index1 and alt_index, inlined: set-up fills call
        # this once per member.
        fp = fast_hash32(key, 0xF00D) & self._fp_mask or 1
        mask = self.n_buckets - 1
        i1 = crc_hash32(key, 2) & mask
        i2 = (i1 ^ crc_hash32(fp, 3)) & mask
        buckets = self._buckets
        for index in (i1, i2):
            bucket = buckets[index]
            if 0 in bucket:
                bucket[bucket.index(0)] = fp
                self._len += 1
                return True
        index = self._rng.choice((i1, i2))
        for _ in range(MAX_KICKS):
            slot = self._rng.randrange(self.slots_per_bucket)
            fp, buckets[index][slot] = buckets[index][slot], fp
            index = self.alt_index(index, fp)
            free = self._free_slot(index)
            if free is not None:
                buckets[index][free] = fp
                self._len += 1
                return True
        return False

    def delete(self, key: int) -> bool:
        fp = self.fingerprint(key)
        i1 = self.index1(key)
        i2 = self.alt_index(i1, fp)
        for index in (i1, i2):
            bucket = self._buckets[index]
            for slot, stored in enumerate(bucket):
                if stored == fp:
                    bucket[slot] = 0
                    self._len -= 1
                    return True
        return False

    def copy(self) -> "CuckooFilter":
        """An independent filter in this one's exact state: the same
        fingerprints in the same slots, the same length and the same
        kick RNG state."""
        dup = copy.copy(self)
        dup._buckets = [bucket[:] for bucket in self._buckets]
        dup._rng = copy.deepcopy(self._rng)
        return dup

    def _free_slot(self, index: int) -> Optional[int]:
        bucket = self._buckets[index]
        return bucket.index(0) if 0 in bucket else None

    @property
    def capacity(self) -> int:
        return self.n_buckets * self.slots_per_bucket

    @property
    def load_factor(self) -> float:
        return self._len / self.capacity

    def __len__(self) -> int:
        return self._len
