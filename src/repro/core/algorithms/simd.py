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

from ...ebpf.cost_model import Category, ExecMode, simd_batches
from ...ebpf.runtime import BpfRuntime

LANES = 8  # AVX2: 8 x 32-bit lanes per 256-bit register


class SimdOps:
    """Cost-charged compare/reduce kfuncs bound to a runtime."""

    def __init__(
        self, rt: BpfRuntime, category: Category = Category.BUCKETS
    ) -> None:
        self.rt = rt
        self.category = category

    # -- high-level interfaces ------------------------------------------------

    def _call_overhead(self) -> int:
        if self.rt.mode == ExecMode.ENETSTL:
            return self.rt.costs.kfunc_call
        if self.rt.mode == ExecMode.KERNEL:
            return self.rt.costs.kernel_call
        return 0

    def _charge_batched(
        self, n_items: int, batch_cost: int, scalar_cost: int, fused: bool
    ) -> None:
        costs = self.rt.costs
        if self.rt.mode == ExecMode.PURE_EBPF:
            self.rt.charge(scalar_cost * max(n_items, 1), self.category)
            return
        batches = simd_batches(n_items, LANES)
        extra = 0 if fused else self._call_overhead()
        self.rt.charge(
            (costs.simd_load + batch_cost) * max(batches, 1) + extra, self.category
        )

    def find(self, arr: Sequence[int], key: int, fused: bool = False) -> int:
        """Index of the first element equal to ``key``; -1 if absent.

        One SIMD load + compare per 8 slots; the result returns through
        r0, so no memory is written.  ``fused=True`` marks a call made
        from inside a larger kfunc (no extra call overhead).
        """
        self._charge_batched(len(arr), self.rt.costs.cmp_simd_batch,
                             self.rt.costs.cmp_scalar_per_item, fused)
        for i, v in enumerate(arr):
            if v == key:
                return i
        return -1

    def reduce_min(self, arr: Sequence[int], fused: bool = False) -> Tuple[int, int]:
        """(index, value) of the first minimum element."""
        if not arr:
            raise ValueError("cannot reduce an empty array")
        self._charge_batched(len(arr), self.rt.costs.reduce_simd_batch,
                             self.rt.costs.reduce_scalar_per_item, fused)
        best_i = 0
        for i, v in enumerate(arr):
            if v < arr[best_i]:
                best_i = i
        return best_i, arr[best_i]

    def reduce_max(self, arr: Sequence[int], fused: bool = False) -> Tuple[int, int]:
        """(index, value) of the first maximum element."""
        if not arr:
            raise ValueError("cannot reduce an empty array")
        self._charge_batched(len(arr), self.rt.costs.reduce_simd_batch,
                             self.rt.costs.reduce_scalar_per_item, fused)
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
        extra = costs.kfunc_call if self.rt.mode == ExecMode.ENETSTL else 0
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
