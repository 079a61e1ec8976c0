"""Hashing algorithms and unified post-hashing operations (§4.3).

Two interface tiers, mirroring the paper's argument:

1. ``hw_hash_crc`` — a single hardware-accelerated hash (the DPDK
   practice); used when an NF needs only one or two hash functions.
2. Unified *hash-then-operate* kfuncs — ``hash_cnt`` (count after
   hashing, Count-min), ``hash_setbits``/``hash_testbits``
   (Bloom-style membership) and ``hash_cmp`` (compare after hashing,
   d-ary cuckoo).  These compute all ``k`` hashes in SIMD registers and
   consume the results in place, so nothing is copied back through
   eBPF memory.  Each takes the :mod:`repro.datastructs` structure it
   works on and runs that structure's own method; the price is
   :meth:`~repro.core.kfunc.LibraryPrices.hash_op`.

``hash_cnt_lowlevel`` is the paper's *counter-example* (Listing 2):
SIMD hashing whose results must be stored to memory and reloaded by the
caller, kept for the Fig. 6 ablation.

Hash values themselves come from a splitmix64 finalizer (real
computation, deterministic, well-distributed); cycle costs are charged
per the execution mode.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, List, Sequence, Union

from ...ebpf.cost_model import Category, ExecMode
from ...ebpf.runtime import BpfRuntime
from ..kfunc import LibraryPrices

if TYPE_CHECKING:
    from ...datastructs.bloom import BloomFilter
    from ...datastructs.countmin import CountMinSketch
    from ...datastructs.dary_cuckoo import DaryCuckooTable

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

    Each hash-then-operate kfunc takes the structure it works on, charges
    its :class:`~repro.core.kfunc.LibraryPrices` price and runs the
    structure's own method; the structure's hash family stands for the
    kfunc's SIMD batch.  In ``PURE_EBPF`` mode the ``k`` hashes are
    ``k`` software hashes (no SIMD in the eBPF ISA) and a single hash
    is a full software hash (no CRC instruction).
    """

    category = Category.MULTIHASH

    def __init__(self, rt: BpfRuntime) -> None:
        self.rt = rt
        self.prices = LibraryPrices(rt.mode, rt.costs)

    def hw_hash_crc(self, key: KeyLike, seed: int = 0) -> int:
        """One hash value; hardware CRC where available."""
        self.rt.charge(self.prices.crc(), self.category)
        if self.rt.mode is ExecMode.PURE_EBPF:
            return fast_hash32(key, seed)
        return crc_hash32(key, seed)

    # -- unified post-hash operations ------------------------------------------

    def hash_cnt(self, sketch: "CountMinSketch", key: int) -> int:
        """Count after hashing (``hash_simd_cnt``): bump the key's
        counter in every row of ``sketch``, in place.  Returns the new
        estimate; no hash value crosses the eBPF boundary."""
        self.rt.charge(self.prices.hash_op(sketch.depth), self.category)
        return sketch.update(key)

    def hash_setbits(self, bloom: "BloomFilter", key: int) -> None:
        """Set bits after hashing (``hash_simd_setbits``, Bloom insert)."""
        self.rt.charge(self.prices.hash_op(bloom.n_hashes), self.category)
        bloom.add(key)

    def hash_testbits(self, bloom: "BloomFilter", key: int) -> bool:
        """Test bits after hashing (``hash_simd_testbits``, Bloom query)."""
        hit = key in bloom
        self.rt.charge(self.prices.hash_op(bloom.n_hashes, hit), self.category)
        return hit

    def hash_cmp(self, table: "DaryCuckooTable", key: int) -> int:
        """Compare after hashing (``hash_simd_cmp``, d-ary cuckoo probe):
        the row whose candidate cell holds ``key``, else -1."""
        self.rt.charge(self.prices.hash_op(table.d), self.category)
        return table.find_row(key)

    # -- low-level counter-example (Fig. 6, "HASH Low") --------------------------

    def hash_cnt_lowlevel(self, sketch: "CountMinSketch", key: int) -> int:
        """Count-after-hashing built from instruction-level kfuncs.

        The Fig. 6 "HASH Low" variant (Listing 2's ``fasthash_simd``):
        the SIMD batch still computes the ``k`` hashes, but each value
        must be extracted through its own kfunc call (register state
        does not survive across calls, so every extraction reloads and
        stores through eBPF memory), and the counting happens on the
        eBPF side with per-access bounds checks.  Functionally identical
        to :meth:`hash_cnt`.
        """
        k = sketch.depth
        costs = self.rt.costs
        call = self.prices.call
        self.rt.charge(
            # The SIMD computation itself (one call), then a round trip
            # through eBPF memory per extracted lane, then eBPF-side
            # counting behind verifier-mandated checks.
            self.prices.simd_hash(k)
            + call
            + k * (call + costs.simd_load + costs.simd_store + 16)
            + k * (costs.bounds_check + 5 + costs.counter_update),
            self.category,
        )
        return sketch.update(key)
