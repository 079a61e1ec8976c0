"""Random-number pools (§4.3, "Data structures: random-pool").

Probabilistic NFs (Memento-style counting, NitroSketch) need a random
number *per packet*; ``bpf_get_prandom_u32`` costs a helper call each
time, which the paper measures at a 46.6% average throughput hit.

eNetSTL's random-pool keeps a shared buffer of pre-generated numbers
that a program drains with a cheap kfunc.  Two refinements over prior
work [52] are modeled:

- **automatic reinjection**: when the pool runs low it refills itself
  (amortized background cost), rather than being a fixed one-shot pool;
- :class:`GeoRandomPool`: a pool of *geometric-distributed skip
  counts*, so a probability-p sampler can draw "how many packets until
  the next update" once instead of testing every packet ([45, 52]).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque

from ...ebpf.cost_model import Category, ExecMode
from ...ebpf.runtime import BpfRuntime
from ..errors import PoolEmptyError
from ..kfunc import LibraryPrices

M32 = (1 << 32) - 1


class RandomPool:
    """A refillable pool of uniform u32 values."""

    def __init__(
        self,
        rt: BpfRuntime,
        capacity: int = 4096,
        refill_threshold: float = 0.25,
        auto_refill: bool = True,
        category: Category = Category.RANDOM,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 <= refill_threshold < 1.0:
            raise ValueError("refill_threshold must be in [0, 1)")
        self.rt = rt
        self.capacity = capacity
        self.refill_threshold = refill_threshold
        self.auto_refill = auto_refill
        self.category = category
        self.prices = LibraryPrices(rt.mode, rt.costs)
        self._pool: Deque[int] = deque()
        self.refills = 0
        self._fill(capacity, charge=False)  # initial fill at load time

    def _fill(self, n: int, charge: bool = True) -> None:
        for _ in range(n):
            self._pool.append(self.rt.raw_random_u32())
        if charge:
            # Reinjection runs off the packet path (kthread/timer);
            # its amortized per-item cost is still accounted.
            self.rt.charge(self.rt.costs.rpool_refill_per_item * n, self.category)
        self.refills += 1 if charge else 0

    def draw(self) -> int:
        """Pop one u32; refills automatically below the threshold."""
        if self.rt.mode is ExecMode.PURE_EBPF:
            # A pure-eBPF program has no pool: helper call per draw.
            return self.rt.prandom_u32(self.category)
        self.rt.charge(self.prices.pool_draw(), self.category)
        if not self._pool:
            if not self.auto_refill:
                raise PoolEmptyError("random pool exhausted (auto_refill disabled)")
            self._fill(self.capacity)
        value = self._pool.popleft()
        if self.auto_refill and len(self._pool) < self.capacity * self.refill_threshold:
            self._fill(self.capacity - len(self._pool))
        return value

    def draw_float(self) -> float:
        """Uniform float in [0, 1) from one pool draw."""
        return self.draw() / (M32 + 1)

    def draw_many(self, n: int):
        """Draw ``n`` values through one kfunc crossing (batched)."""
        if n <= 0:
            raise ValueError("n must be positive")
        if self.rt.mode is ExecMode.PURE_EBPF:
            return [self.rt.prandom_u32(self.category) for _ in range(n)]
        self.rt.charge(self.prices.pool_draw(n), self.category)
        out = []
        for _ in range(n):
            if not self._pool:
                if not self.auto_refill:
                    raise PoolEmptyError("random pool exhausted")
                self._fill(self.capacity)
            out.append(self._pool.popleft())
        if self.auto_refill and len(self._pool) < self.capacity * self.refill_threshold:
            self._fill(self.capacity - len(self._pool))
        return out

    @property
    def level(self) -> int:
        return len(self._pool)


class GeoRandomPool:
    """A pool of geometric(p) skip counts for probabilistic updating.

    ``draw()`` returns the number of events until the next success
    (1-based).  A sampler that updates with probability ``p`` draws one
    skip count per *update* instead of one uniform per *packet*.
    """

    def __init__(
        self,
        rt: BpfRuntime,
        p: float,
        capacity: int = 2048,
        auto_refill: bool = True,
        category: Category = Category.RANDOM,
    ) -> None:
        if not 0.0 < p <= 1.0:
            raise ValueError("p must be in (0, 1]")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.rt = rt
        self.p = p
        self.capacity = capacity
        self.auto_refill = auto_refill
        self.category = category
        self.prices = LibraryPrices(rt.mode, rt.costs)
        self._pool: Deque[int] = deque()
        self.refills = 0
        self._fill(capacity, charge=False)

    def _sample(self) -> int:
        if self.p >= 1.0:
            return 1
        u = self.rt.raw_random()
        # Inverse-CDF: ceil(ln(1-u) / ln(1-p)), >= 1.
        return max(1, math.ceil(math.log(1.0 - u) / math.log(1.0 - self.p)))

    def _fill(self, n: int, charge: bool = True) -> None:
        for _ in range(n):
            self._pool.append(self._sample())
        if charge:
            self.rt.charge(self.rt.costs.rpool_refill_per_item * n, self.category)
        self.refills += 1 if charge else 0

    def draw(self) -> int:
        """Pop one geometric skip count."""
        if self.rt.mode is ExecMode.PURE_EBPF:
            # Pure eBPF cannot host the pool; it burns a helper call per
            # packet and compares against p (modeled by the caller).
            raise PoolEmptyError(
                "geo pools are an eNetSTL/kernel facility; pure-eBPF NFs "
                "sample per packet via bpf_get_prandom_u32"
            )
        self.rt.charge(self.prices.geo_draw(), self.category)
        if not self._pool:
            if not self.auto_refill:
                raise PoolEmptyError("geo pool exhausted (auto_refill disabled)")
            self._fill(self.capacity)
        value = self._pool.popleft()
        if self.auto_refill and len(self._pool) < self.capacity // 4:
            self._fill(self.capacity - len(self._pool))
        return value

    def draw_many(self, n: int):
        """Draw ``n`` skip counts through one kfunc crossing (batched)."""
        if n <= 0:
            raise ValueError("n must be positive")
        if self.rt.mode is ExecMode.PURE_EBPF:
            raise PoolEmptyError(
                "geo pools are an eNetSTL/kernel facility; pure-eBPF NFs "
                "sample per packet via bpf_get_prandom_u32"
            )
        self.rt.charge(self.prices.geo_draw(n), self.category)
        out = []
        for _ in range(n):
            if not self._pool:
                if not self.auto_refill:
                    raise PoolEmptyError("geo pool exhausted")
                self._fill(self.capacity)
            out.append(self._pool.popleft())
        if self.auto_refill and len(self._pool) < self.capacity // 4:
            self._fill(self.capacity - len(self._pool))
        return out

    @property
    def level(self) -> int:
        return len(self._pool)
