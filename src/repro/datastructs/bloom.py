"""Bloom filter and vector-of-Bloom-filters (membership tests, [8], [36]).

:class:`BloomFilter` is the classic k-hash bitmap.  :class:`VectorBloomFilter`
models the DPDK Membership Library's vBF mode ([36]): ``v`` Bloom
filters queried *in parallel* (one SIMD pass over the same bit
positions of every filter) to answer "which set(s) does this key belong
to" — each filter represents one set.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.algorithms.hashing import fast_hash32


class BloomFilter:
    """Standard Bloom filter over integer keys; bitmap is u64 words.

    The one Bloom implementation: :class:`repro.nfs.BloomFilterNF` and
    the per-CPU merge hold one and charge their costs beside it.
    """

    def __init__(self, n_bits: int = 1 << 16, n_hashes: int = 4) -> None:
        if n_bits <= 0 or n_bits % 64:
            raise ValueError("n_bits must be a positive multiple of 64")
        if n_hashes <= 0:
            raise ValueError("n_hashes must be positive")
        self.n_bits = n_bits
        self.n_hashes = n_hashes
        self.words: List[int] = [0] * (n_bits // 64)

    def _positions(self, key: int) -> List[int]:
        return [fast_hash32(key, seed) % self.n_bits for seed in range(self.n_hashes)]

    def add(self, key: int) -> None:
        for bit in self._positions(key):
            self.words[bit // 64] |= 1 << (bit % 64)

    def __contains__(self, key: int) -> bool:
        words, n_bits = self.words, self.n_bits
        for seed in range(self.n_hashes):
            bit = fast_hash32(key, seed) % n_bits
            if not words[bit // 64] >> (bit % 64) & 1:
                return False
        return True

    def check_mergeable(self, other: "BloomFilter") -> None:
        """Raise ``ValueError`` unless ``other`` has this filter's size
        and hash count, so that its bitmap ORs into this one's."""
        if (other.n_bits, other.n_hashes) != (self.n_bits, self.n_hashes):
            raise ValueError("Bloom filter sizes or hash counts differ")

    @property
    def fill_ratio(self) -> float:
        set_bits = sum(bin(w).count("1") for w in self.words)
        return set_bits / self.n_bits

    def expected_fpr(self) -> float:
        """Theoretical false-positive rate at the current fill."""
        return self.fill_ratio ** self.n_hashes


class VectorBloomFilter:
    """``v`` Bloom filters answering set-membership in one pass.

    Bits are stored transposed: for each bit position there is one
    ``v``-bit word whose lane ``s`` belongs to set ``s``.  A query ANDs
    the k position-words, so the result's set lanes are exactly the sets
    whose k bits are all present — one bitwise pass instead of ``v``
    separate filter probes (the SIMD trick eNetSTL wraps).
    """

    def __init__(
        self, n_sets: int = 8, n_bits: int = 1 << 14, n_hashes: int = 4
    ) -> None:
        if not 1 <= n_sets <= 64:
            raise ValueError("n_sets must be in [1, 64]")
        if n_bits <= 0:
            raise ValueError("n_bits must be positive")
        if n_hashes <= 0:
            raise ValueError("n_hashes must be positive")
        self.n_sets = n_sets
        self.n_bits = n_bits
        self.n_hashes = n_hashes
        self._lanes: List[int] = [0] * n_bits   # one v-bit word per position
        self._len = 0

    def _positions(self, key: int) -> List[int]:
        return [fast_hash32(key, 77 + seed) % self.n_bits for seed in range(self.n_hashes)]

    def add(self, key: int, set_id: int) -> None:
        if not 0 <= set_id < self.n_sets:
            raise ValueError(f"set_id {set_id} out of range (n_sets={self.n_sets})")
        lane = 1 << set_id
        for pos in self._positions(key):
            self._lanes[pos] |= lane
        self._len += 1

    def query(self, key: int) -> int:
        """Bitmask of candidate sets (bit s set => key may be in set s)."""
        mask = (1 << self.n_sets) - 1
        for pos in self._positions(key):
            mask &= self._lanes[pos]
            if not mask:
                break
        return mask

    def lookup(self, key: int) -> Optional[int]:
        """Lowest candidate set id, or None."""
        mask = self.query(key)
        if not mask:
            return None
        return (mask & -mask).bit_length() - 1

    def __len__(self) -> int:
        return self._len
