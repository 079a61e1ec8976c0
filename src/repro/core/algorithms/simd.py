"""Parallel compare / reduce over contiguous buckets (§4.3).

NFs that arrange multiple buckets in contiguous memory (O6) iterate a
small fixed-width array either *comparing* a key against each slot
(cuckoo hash/filter probes) or *reducing* to the min/max slot (counter
eviction, EFD group choice).  eNetSTL ships these as two high-level
kfuncs that load the array into SIMD registers once and return only a
small index:

- :meth:`SimdOps.find` — index of the first slot equal to ``key``;
- :meth:`SimdOps.reduce_min` / :meth:`SimdOps.reduce_max`.

The deliberately low-level per-instruction interface (Listing 1's
``bpf_mm256_*``) is implemented too; every call pays the SIMD
load/store round-trip, which Fig. 6 shows erases the SIMD win.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ...ebpf.cost_model import Category, simd_batches
from ...ebpf.runtime import BpfRuntime
from ..kfunc import LibraryPrices

LANES = 8  # AVX2: 8 x 32-bit lanes per 256-bit register


class SimdOps:
    """Cost-charged compare/reduce kfuncs bound to a runtime."""

    category = Category.BUCKETS

    def __init__(self, rt: BpfRuntime) -> None:
        self.rt = rt
        self.prices = LibraryPrices(rt.mode, rt.costs)

    # -- high-level interfaces ------------------------------------------------

    def find(self, arr: Sequence[int], key: int, fused: bool = False) -> int:
        """Index of the first element equal to ``key``; -1 if absent.

        One SIMD load + compare per 8 slots; the result returns through
        r0, so no memory is written.  ``fused=True`` marks a call made
        from inside a larger kfunc (no extra call overhead).
        """
        self.rt.charge(self.prices.find(len(arr), fused), self.category)
        for i, v in enumerate(arr):
            if v == key:
                return i
        return -1

    def reduce_min(self, arr: Sequence[int], fused: bool = False) -> Tuple[int, int]:
        """(index, value) of the first minimum element."""
        if not arr:
            raise ValueError("cannot reduce an empty array")
        self.rt.charge(self.prices.reduce(len(arr), fused), self.category)
        best_i = 0
        for i, v in enumerate(arr):
            if v < arr[best_i]:
                best_i = i
        return best_i, arr[best_i]

    def reduce_max(self, arr: Sequence[int], fused: bool = False) -> Tuple[int, int]:
        """(index, value) of the first maximum element."""
        if not arr:
            raise ValueError("cannot reduce an empty array")
        self.rt.charge(self.prices.reduce(len(arr), fused), self.category)
        best_i = 0
        for i, v in enumerate(arr):
            if v > arr[best_i]:
                best_i = i
        return best_i, arr[best_i]

    # -- low-level per-instruction interface (Fig. 6, "COMP Low") ---------------

    def find_lowlevel(self, arr: Sequence[int], key: int) -> int:
        """``find`` composed from instruction-level kfuncs.

        Each wrapped instruction (broadcast, compare, movemask) is its
        own kfunc call and must move operands through eBPF memory:
        loads on entry, stores on exit (Listing 1's
        ``bpf_mm256_mul_epu32`` shape).  Functionally identical to
        :meth:`find`; only the charging differs.
        """
        costs = self.rt.costs
        extra = self.prices.crossing
        for _ in range(max(simd_batches(len(arr), LANES), 1)):
            # kfunc 1: broadcast key -> register, stored back to memory.
            self.rt.charge(costs.simd_load + costs.simd_store + extra, self.category)
            # kfunc 2: cmpeq, operands loaded, mask stored.
            self.rt.charge(
                2 * costs.simd_load + costs.cmp_simd_batch + costs.simd_store + extra,
                self.category,
            )
            # kfunc 3: movemask + ffs on the stored mask.
            self.rt.charge(costs.simd_load + costs.ffs_hw + extra, self.category)
        for i, v in enumerate(arr):
            if v == key:
                return i
        return -1
