"""List-buckets: the bucket-queue data structure (§4.3).

NFs built on bucket sorting (timing wheels, calendar queues, Eiffel's
bucketed priority levels) keep an *array of linked lists*.  Doing this
with eBPF's native machinery costs twice per operation:

1. each list lives in its own BPF map element, so selecting bucket
   ``i`` is a ``bpf_map_lookup_elem`` helper call, and
2. eBPF couples every list mutation to a ``bpf_spin_lock``.

eNetSTL's list-buckets holds all queues in one percpu object behind a
unified API whose parameter selects the target queue — one kfunc call,
no lock.  The class below implements the real queue semantics once and
charges costs per the runtime's execution mode, so the same tests cover
all three variants.

A per-word non-empty bitmap is maintained so bitmap-assisted users
(time wheel cascades, cFFS) can locate the next busy bucket with FFS.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from ...ebpf.cost_model import Category
from ...ebpf.runtime import BpfRuntime
from ..kfunc import LibraryPrices


class ListBuckets:
    """An array of ``n_buckets`` FIFO/LIFO queues with O(1) selection."""

    category = Category.FUNDAMENTAL_DS

    def __init__(self, rt: BpfRuntime, n_buckets: int) -> None:
        if n_buckets <= 0:
            raise ValueError("n_buckets must be positive")
        self.rt = rt
        self.n_buckets = n_buckets
        self.prices = LibraryPrices(rt.mode, rt.costs)
        self._buckets: List[Deque[Any]] = [deque() for _ in range(n_buckets)]
        self._bitmap: List[int] = [0] * ((n_buckets + 63) // 64)
        self._size = 0

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.n_buckets:
            raise IndexError(f"bucket {i} out of range (n={self.n_buckets})")

    def _mark(self, i: int) -> None:
        self._bitmap[i // 64] |= 1 << (i % 64)

    def _unmark(self, i: int) -> None:
        self._bitmap[i // 64] &= ~(1 << (i % 64))

    # -- operations -----------------------------------------------------------

    def insert_front(self, i: int, data: Any) -> None:
        """Push ``data`` at the front of bucket ``i`` (one unified call)."""
        self.rt.charge(self.prices.lb_insert, self.category)
        self._check_index(i)
        self._buckets[i].appendleft(data)
        self._mark(i)
        self._size += 1

    def insert_tail(self, i: int, data: Any) -> None:
        """Append ``data`` at the tail of bucket ``i``."""
        self.rt.charge(self.prices.lb_insert, self.category)
        self._check_index(i)
        self._buckets[i].append(data)
        self._mark(i)
        self._size += 1

    def pop_front(self, i: int) -> Optional[Any]:
        """Pop from the front of bucket ``i``; None when empty."""
        self._check_index(i)
        bucket = self._buckets[i]
        if not bucket:
            self.rt.charge(self.prices.lb_empty, self.category)
            return None
        self.rt.charge(self.prices.lb_pop, self.category)
        item = bucket.popleft()
        if not bucket:
            self._unmark(i)
        self._size -= 1
        return item

    def drain(self, i: int) -> List[Any]:
        """Pop everything from bucket ``i`` in order (cascade helper)."""
        self._check_index(i)
        bucket = self._buckets[i]
        if not bucket:
            self.rt.charge(self.prices.lb_empty, self.category)
            return []
        self.rt.charge(self.prices.lb_pop, self.category)
        items = list(bucket)
        bucket.clear()
        self._unmark(i)
        self._size -= len(items)
        return items

    # -- inspection (uncosted: verifier-visible metadata) -----------------------

    def bucket_len(self, i: int) -> int:
        self._check_index(i)
        return len(self._buckets[i])

    def is_empty(self, i: int) -> bool:
        self._check_index(i)
        return not self._buckets[i]

    def bitmap_word(self, w: int) -> int:
        """The w-th 64-bucket occupancy word (for FFS-assisted scans)."""
        return self._bitmap[w]

    def __len__(self) -> int:
        return self._size
