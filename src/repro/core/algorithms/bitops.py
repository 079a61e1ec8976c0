"""Bit-manipulation algorithms (§4.3, "Algorithms: bit manipulation").

eNetSTL encapsulates individual hardware bit instructions (FFS, FLS,
POPCNT) as kfuncs.  This is the one place a low-level interface is
fine: inputs and outputs are single u64 values that travel in
registers, so no memory copies are needed.

The eBPF baseline lacks these instructions entirely (P2) and must use
software loops; the cost model charges accordingly.
"""

from __future__ import annotations

from ...ebpf.cost_model import Category
from ...ebpf.runtime import BpfRuntime
from ..kfunc import LibraryPrices

U64_MASK = (1 << 64) - 1


def soft_ffs(x: int) -> int:
    """Software find-first-set (1-based; 0 when no bit set)."""
    x &= U64_MASK
    if x == 0:
        return 0
    return (x & -x).bit_length()


def soft_fls(x: int) -> int:
    """Software find-last-set (1-based; 0 when no bit set)."""
    return (x & U64_MASK).bit_length()


def soft_popcnt(x: int) -> int:
    """Software population count."""
    return bin(x & U64_MASK).count("1")


class BitOps:
    """Cost-charged bit instructions bound to a runtime."""

    def __init__(
        self, rt: BpfRuntime, category: Category = Category.BITOPS
    ) -> None:
        self.rt = rt
        self.category = category
        self.prices = LibraryPrices(rt.mode, rt.costs)

    def ffs(self, x: int) -> int:
        """Find first (least-significant) set bit; 1-based, 0 if none.

        Three CPU cycles on hardware (TZCNT) — the instruction Eiffel's
        cFFS queue leans on for O(n/64) priority lookup.
        """
        self.rt.charge(self.prices.ffs, self.category)
        return soft_ffs(x)

    def fls(self, x: int) -> int:
        """Find last (most-significant) set bit; 1-based, 0 if none."""
        self.rt.charge(self.prices.ffs, self.category)
        return soft_fls(x)

    def popcnt(self, x: int) -> int:
        """Count set bits."""
        self.rt.charge(self.prices.popcnt, self.category)
        return soft_popcnt(x)
