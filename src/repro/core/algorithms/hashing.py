"""Hashing algorithms and unified post-hashing operations (§4.3).

Three interface tiers, mirroring the paper's argument:

1. ``hw_hash_crc`` — a single hardware-accelerated hash (the DPDK
   practice); used when an NF needs only one or two hash functions.
2. Unified *hash-then-operate* kfuncs — ``hash_cnt`` (count after
   hashing, Count-min/NitroSketch), ``hash_min_read`` (aggregate after
   hashing), ``hash_setbits``/``hash_testbits`` (Bloom-style membership),
   ``hash_cmp`` (compare after hashing, d-ary cuckoo).  These compute
   all ``k`` hashes in SIMD registers and consume the results in place,
   so nothing is copied back through eBPF memory.
3. ``fasthash_simd_lowlevel`` — the paper's *counter-example* (Listing
   2): SIMD hashing whose results must be stored to memory and reloaded
   by the caller.  Kept for the Fig. 6 ablation.

Hash values themselves come from a splitmix64 finalizer (real
computation, deterministic, well-distributed); cycle costs are charged
per the execution mode.
"""

from __future__ import annotations

import struct
from typing import List, MutableSequence, Sequence, Union

from ...ebpf.cost_model import Category, ExecMode, simd_batches
from ...ebpf.runtime import BpfRuntime
from ..kfunc import LibraryPrices

M32 = (1 << 32) - 1
M64 = (1 << 64) - 1

KeyLike = Union[int, bytes]


def _to_int(key: KeyLike) -> int:
    if isinstance(key, bytes):
        if len(key) <= 8:
            return int.from_bytes(key, "little")
        # Fold longer keys 8 bytes at a time: a bare from_bytes would be
        # truncated to 64 bits downstream, making e.g. b"backend-0" and
        # b"backend-1" (which differ only in the 9th byte) collide.
        x = 0
        for i in range(0, len(key), 8):
            chunk = int.from_bytes(key[i : i + 8], "little")
            x = ((x * 0x100000001B3) ^ chunk) & M64
        return x
    return key & M64


# The hashers below take plain ints inline: masking the sum (or XOR)
# to 64 bits equals masking the key first, so only other key types pay
# the ``_to_int`` call.


def fast_hash64(key: KeyLike, seed: int = 0) -> int:
    """Splitmix64-style avalanche hash (functional stand-in for xxhash)."""
    if key.__class__ is not int:
        key = _to_int(key)
    x = (key + (seed + 1) * 0x9E3779B97F4A7C15) & M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & M64
    return x ^ (x >> 31)


def fast_hash32(key: KeyLike, seed: int = 0) -> int:
    """32-bit variant of :func:`fast_hash64`."""
    if key.__class__ is not int:
        key = _to_int(key)
    x = (key + (seed + 1) * 0x9E3779B97F4A7C15) & M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & M64
    return (x ^ (x >> 31)) & M32


def crc_hash32(key: KeyLike, seed: int = 0) -> int:
    """Stand-in for a hardware CRC32C hash (distinct mixing constant)."""
    if key.__class__ is not int:
        key = _to_int(key)
    x = (key ^ (seed * 0x9E3779B1 + 0x85EBCA77)) & M64
    x = (x * 0xC2B2AE3D27D4EB4F) & M64
    x ^= x >> 29
    x = (x * 0x165667B19E3779F9) & M64
    x ^= x >> 32
    return x & M32


#: Per-row salts of :func:`salted_hash32` (splitmix64-style odd
#: constants), and the multiplier that mixes them in.
SALTS = (
    0x9E3779B97F4A7C15,
    0xC2B2AE3D27D4EB4F,
    0x165667B19E3779F9,
    0x27D4EB2F165667C5,
    0x85EBCA77C2B2AE63,
)
SALT_MIX = 0x2545F4914F6CDD1D


def salted_hash32(key: int, row: int) -> int:
    """Row ``row``'s salted-multiply hash of an int key: the high half
    of ``(key ^ salt) * SALT_MIX`` mod 2^64.

    The row hash of the IR count-min kfuncs: one xor and one multiply,
    cheap enough to unroll into fused code with the salts as literals.
    The low 64 bits of the product depend only on the key's low 64
    bits, so wider keys hash as if masked.
    """
    return ((key ^ SALTS[row]) * SALT_MIX & M64) >> 32


# -- lane kernel ---------------------------------------------------------------
#
# The software analogue of the multi-hash kfuncs: one Python big int
# holds LANES 64-bit lanes at a 128-bit stride, so every splitmix step
# is a handful of whole-int operations instead of one interpreted
# sequence per key.  A product of a lane (< 2^64) and a 64-bit
# constant stays below 2^128, so lanes never carry into each other; a
# right shift drags the next lane's low bits into the padding, which
# the lane mask after every shift and multiply clears.

LANES = 64
_STRIDE = 16  # bytes per lane
_ONES = sum(1 << (128 * i) for i in range(LANES))
_LANE64 = M64 * _ONES
_LANE32 = M32 * _ONES
_PACK = struct.Struct("<" + "Q8x" * LANES)
_UNPACK32 = struct.Struct("<" + "I12x" * LANES)
#: Fewest keys a lane block is worth: below it the scalar loop is
#: faster (measured on a 2-vCPU x86-64 host with CPython 3.11: one key
#: costs 7.2 us in a padded block and 0.5 us scalar; 16 keys 450 ns
#: against 380 ns per key; 64 keys 115 ns against 400 ns).
LANE_CROSSOVER = 20


def fast_hash32_lanes(keys: Sequence[int], seed: int = 0) -> List[int]:
    """``[fast_hash32(k, seed) for k in keys]`` for int keys, LANES at a time.

    A block of fewer than ``LANE_CROSSOVER`` keys (a short call, or the
    tail of a long one) runs the scalar loop instead: the padded block
    costs the same as a full one.  Keys outside ``[0, 2^64)`` (a
    104-bit ``Packet.key_int``) are masked once, at the first block
    that holds one, for the rest of the call.
    """
    n_keys = len(keys)
    if n_keys < LANE_CROSSOVER:  # also skips building ``add`` below
        return [fast_hash32(k, seed) for k in keys]
    out: List[int] = []
    add = ((seed + 1) * 0x9E3779B97F4A7C15 & M64) * _ONES
    for start in range(0, n_keys, LANES):
        chunk = keys[start : start + LANES]
        n = len(chunk)
        if n < LANE_CROSSOVER:
            out += [fast_hash32(k, seed) for k in chunk]
            break
        if n < LANES:
            chunk = [*chunk, *(0,) * (LANES - n)]
        try:
            packed = _PACK.pack(*chunk)
        except struct.error:  # a key outside [0, 2^64): mask the rest once
            masked = [k & M64 for k in keys[start:]]
            return out + fast_hash32_lanes(masked, seed)
        x = int.from_bytes(packed, "little") + add & _LANE64
        x ^= x >> 30 & _LANE64
        x = x * 0xBF58476D1CE4E5B9 & _LANE64
        x ^= x >> 27 & _LANE64
        x = x * 0x94D049BB133111EB & _LANE64
        x = (x ^ x >> 31) & _LANE32
        lanes = _UNPACK32.unpack(x.to_bytes(LANES * _STRIDE, "little"))
        out += lanes if n == LANES else lanes[:n]
    return out


#: Inside one LANES-aligned block of event indexes ``i``, ``i << 7``
#: varies only in bits 7 up to (not including) this one.
_BLOCK_SHIFT = 7 + (LANES - 1).bit_length()
#: ``_LANE_INDEX[c]`` holds ``(j ^ c) << 7`` in lane ``j``: the varying
#: bits of ``(i << 7) ^ salt`` for a salt whose bits 7..12 are ``c``.
_LANE_INDEX = tuple(
    int.from_bytes(_PACK.pack(*((j ^ c) << 7 for j in range(LANES))), "little")
    for c in range(LANES)
)
#: Bit 32 of every lane: the borrow bit of a lane-wise compare.
_LANE_BIT32 = (1 << 32) * _ONES


def fast_hash32_below(
    start: int, end: int, salt: int, seed: int, threshold: int
) -> List[int]:
    """The indexes ``i`` in ``[start, end)`` with
    ``fast_hash32((i << 7) ^ salt, seed) < threshold``, in order.

    ``start`` and ``end`` are multiples of LANES, ``salt`` is
    non-negative and ``threshold`` is in ``[0, 2^32]``.  Inside one
    LANES-aligned block the keys differ only in bits 7..12, so each
    block is one base times ``_ONES`` plus a per-salt lane constant;
    no key list is built.  Lane ``j`` then holds ``h + 2^32 -
    threshold``, whose bit 32 is clear exactly when ``h < threshold``,
    and the clear bits name the firing indexes.
    """
    if start % LANES or end % LANES:
        raise ValueError("start and end must be multiples of LANES")
    if not 0 <= threshold <= 1 << 32:
        raise ValueError("threshold must be in [0, 2^32]")
    out: List[int] = []
    lane_index = _LANE_INDEX[salt >> 7 & LANES - 1]
    high = salt >> _BLOCK_SHIFT << _BLOCK_SHIFT
    low = (salt & 0x7F) + ((seed + 1) * 0x9E3779B97F4A7C15 & M64)
    below = ((1 << 32) - threshold) * _ONES
    for block in range(start, end, LANES):
        x = (((block << 7) ^ high) & M64) + low
        x = x * _ONES + lane_index & _LANE64
        x ^= x >> 30 & _LANE64
        x = x * 0xBF58476D1CE4E5B9 & _LANE64
        x ^= x >> 27 & _LANE64
        x = x * 0x94D049BB133111EB & _LANE64
        x = ((x ^ x >> 31) & _LANE32) + below
        fired = x & _LANE_BIT32 ^ _LANE_BIT32
        while fired:
            bit = fired & -fired
            out.append(block + (bit.bit_length() >> 7))
            fired ^= bit
    return out


class HashAlgos:
    """Cost-charged hash kfuncs bound to a runtime.

    In ``PURE_EBPF`` mode, multi-hash operations fall back to one
    software hash per function (no SIMD in the eBPF ISA) and single
    hashes cost a full software hash (no CRC instruction).
    """

    category = Category.MULTIHASH

    def __init__(self, rt: BpfRuntime) -> None:
        self.rt = rt
        self.prices = LibraryPrices(rt.mode, rt.costs)

    # -- single hash -------------------------------------------------------

    def hw_hash_crc(self, key: KeyLike, seed: int = 0) -> int:
        """One hash value; hardware CRC where available."""
        self.rt.charge(self.prices.crc(), self.category)
        if self.rt.mode is ExecMode.PURE_EBPF:
            return fast_hash32(key, seed)
        return crc_hash32(key, seed)

    def hash_scalar(self, key: KeyLike, seed: int = 0) -> int:
        """One software hash (the only option in pure eBPF)."""
        self.rt.charge(self.rt.costs.hash_scalar, self.category)
        return fast_hash32(key, seed)

    # -- internal: the k hash values, with mode-appropriate cost ------------

    def _hashes(self, key: KeyLike, k: int) -> List[int]:
        if k <= 0:
            raise ValueError("k must be positive")
        self.rt.charge(self.prices.multi_hash(k), self.category)
        return [fast_hash32(key, seed) for seed in range(k)]

    # -- unified post-hash operations ------------------------------------------

    def hash_cnt(
        self,
        counters: Sequence[MutableSequence[int]],
        key: KeyLike,
        k: int,
        delta: int = 1,
    ) -> List[int]:
        """Count after hashing: bump one counter per row, in place.

        ``counters`` is a k-row matrix; row ``i``'s column is selected
        by hash ``i`` modulo the row width.  Returns the chosen column
        indexes (callers use them for tests; the kfunc itself returns
        nothing, which is the point — no hash values cross the eBPF
        boundary).
        """
        if len(counters) < k:
            raise ValueError(f"counter matrix has {len(counters)} rows; need {k}")
        cols = []
        for row, h in zip(range(k), self._hashes(key, k)):
            col = h % len(counters[row])
            counters[row][col] += delta
            cols.append(col)
        self.rt.charge(self.rt.costs.counter_update * k, self.category)
        return cols

    def hash_cnt_bulk(
        self,
        counters: Sequence[MutableSequence[int]],
        keys: Sequence[KeyLike],
        k: int,
        delta: int = 1,
    ) -> None:
        """Count-after-hashing over a whole key batch.

        Cycle-identical to ``len(keys)`` calls of :meth:`hash_cnt`
        (the batch pipeline relies on this), but charges the runtime
        once and runs the counter bumps in a tight loop — the Python
        per-call overhead is what drops, not the modeled cycles.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        if len(counters) < k:
            raise ValueError(f"counter matrix has {len(counters)} rows; need {k}")
        n = len(keys)
        if n == 0:
            return
        per_key = self.prices.multi_hash(k) + self.rt.costs.counter_update * k
        self.rt.charge(per_key * n, self.category)
        widths = [len(counters[row]) for row in range(k)]
        for key in keys:
            for row in range(k):
                counters[row][fast_hash32(key, row) % widths[row]] += delta

    def hash_min_read(
        self, counters: Sequence[Sequence[int]], key: KeyLike, k: int
    ) -> int:
        """Aggregate after hashing: the minimum of the k selected counters."""
        if len(counters) < k:
            raise ValueError(f"counter matrix has {len(counters)} rows; need {k}")
        best = None
        for row, h in zip(range(k), self._hashes(key, k)):
            v = counters[row][h % len(counters[row])]
            best = v if best is None else min(best, v)
        self.rt.charge(self.rt.costs.counter_update * k, self.category)
        return best if best is not None else 0

    def hash_setbits(self, bitmap: MutableSequence[int], key: KeyLike, k: int) -> None:
        """Set bits after hashing (Bloom insert); bitmap is a u64 array."""
        nbits = len(bitmap) * 64
        for h in self._hashes(key, k):
            bit = h % nbits
            bitmap[bit // 64] |= 1 << (bit % 64)
        self.rt.charge(self.rt.costs.counter_update * k, self.category)

    def hash_testbits(self, bitmap: Sequence[int], key: KeyLike, k: int) -> bool:
        """Test bits after hashing (Bloom query)."""
        nbits = len(bitmap) * 64
        for h in self._hashes(key, k):
            bit = h % nbits
            if not bitmap[bit // 64] >> (bit % 64) & 1:
                self.rt.charge(self.rt.costs.counter_update, self.category)
                return False
        self.rt.charge(self.rt.costs.counter_update * k, self.category)
        return True

    def hash_cmp(
        self, slots: Sequence[Sequence[int]], key: KeyLike, k: int, needle: int
    ) -> int:
        """Compare after hashing (d-ary cuckoo probe).

        For each of the ``k`` candidate rows, the hash selects a slot;
        returns the index of the first row whose selected slot equals
        ``needle``, else -1.
        """
        if len(slots) < k:
            raise ValueError(f"slot table has {len(slots)} rows; need {k}")
        result = -1
        for row, h in zip(range(k), self._hashes(key, k)):
            if slots[row][h % len(slots[row])] == needle and result < 0:
                result = row
        self.rt.charge(self.rt.costs.counter_update * k, self.category)
        return result

    # -- low-level counter-example (Fig. 6, "HASH Low") --------------------------

    def fasthash_simd_lowlevel(self, key: KeyLike, k: int) -> List[int]:
        """SIMD multi-hash that must round-trip through eBPF memory.

        Models Listing 2's ``fasthash_simd``: the batch is computed in
        SIMD registers but stored back to caller memory (one
        ``simd_store`` per 8 lanes) and each result is then re-loaded by
        the eBPF program (one helper-boundary copy per lane).
        """
        if k <= 0:
            raise ValueError("k must be positive")
        costs = self.rt.costs
        self.rt.charge(
            self.prices.simd_hash(k)
            + costs.simd_store * simd_batches(k)
            + self.prices.call,
            self.category,
        )
        # The eBPF caller re-reads every lane from memory.
        self.rt.charge(costs.mem_copy_per_16b * ((4 * k + 15) // 16) * 4, self.category)
        return [fast_hash32(key, seed) for seed in range(k)]

    def hash_cnt_lowlevel(
        self,
        counters: Sequence[MutableSequence[int]],
        key: KeyLike,
        k: int,
        delta: int = 1,
    ) -> List[int]:
        """Count-after-hashing built from instruction-level kfuncs.

        The Fig. 6 "HASH Low" variant: the SIMD batch still computes the
        ``k`` hashes, but each value must be extracted through its own
        kfunc call (register state does not survive across calls, so
        every extraction reloads and stores through eBPF memory), and
        the counting happens on the eBPF side with per-access bounds
        checks.  Functionally identical to :meth:`hash_cnt`.
        """
        if len(counters) < k:
            raise ValueError(f"counter matrix has {len(counters)} rows; need {k}")
        costs = self.rt.costs
        extra = self.prices.call
        # The SIMD computation itself (one call).
        self.rt.charge(self.prices.simd_hash(k) + extra, self.category)
        # Per-lane extraction round trips.
        self.rt.charge(
            k * (extra + costs.simd_load + costs.simd_store + 16), self.category
        )
        # eBPF-side counting with verifier-mandated checks.
        self.rt.charge(
            k * (costs.bounds_check + 5 + costs.counter_update), self.category
        )
        cols = []
        for row, h in zip(range(k), [fast_hash32(key, seed) for seed in range(k)]):
            col = h % len(counters[row])
            counters[row][col] += delta
            cols.append(col)
        return cols
