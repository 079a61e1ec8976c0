"""Random-number pools (§4.3, "Data structures: random-pool").

Probabilistic NFs (Memento-style counting, NitroSketch) need a random
number *per packet*; ``bpf_get_prandom_u32`` costs a helper call each
time, which the paper measures at a 46.6% average throughput hit.

eNetSTL's random-pool keeps a shared buffer of pre-generated numbers
that a program drains with a cheap kfunc.  Two refinements over prior
work [52] are modeled:

- **automatic reinjection**: when the pool runs low it refills itself
  (amortized background cost), rather than being a fixed one-shot pool;
  both pools below share that one refill rule;
- :class:`GeoRandomPool`: a pool of *geometric-distributed skip
  counts*, so a probability-p sampler can draw "how many packets until
  the next update" once instead of testing every packet ([45, 52]).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List

from ...ebpf.cost_model import Category, ExecMode
from ...ebpf.runtime import BpfRuntime
from ..errors import PoolEmptyError
from ..kfunc import LibraryPrices

M32 = (1 << 32) - 1


class RandomPool:
    """A self-refilling pool of uniform u32 values.

    A draw that leaves fewer than ``capacity // 4`` values refills the
    pool to ``capacity``; a draw from an empty pool refills it first.
    """

    category = Category.RANDOM

    def __init__(self, rt: BpfRuntime, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.rt = rt
        self.capacity = capacity
        self.prices = LibraryPrices(rt.mode, rt.costs)
        self._pool: Deque[int] = deque()
        self.refills = 0
        self._fill(capacity, charge=False)  # initial fill at load time

    def _sample(self) -> int:
        return self.rt.raw_random_u32()

    def _price(self, n: int) -> int:
        return self.prices.pool_draw(n)

    def _ebpf_draws(self, n: int) -> List[int]:
        # A pure-eBPF program has no pool: helper call per draw.
        return [self.rt.prandom_u32(self.category) for _ in range(n)]

    def _fill(self, n: int, charge: bool = True) -> None:
        sample = self._sample
        self._pool.extend(sample() for _ in range(n))
        if charge:
            # Reinjection runs off the packet path (kthread/timer);
            # its amortized per-item cost is still accounted.
            self.rt.charge(self.rt.costs.rpool_refill_per_item * n, self.category)
            self.refills += 1

    def draw(self) -> int:
        """Pop one value."""
        return self.draw_many(1)[0]

    def draw_float(self) -> float:
        """Uniform float in [0, 1) from one pool draw."""
        return self.draw() / (M32 + 1)

    def draw_many(self, n: int) -> List[int]:
        """Draw ``n`` values through one kfunc crossing (batched)."""
        if n <= 0:
            raise ValueError("n must be positive")
        if self.rt.mode is ExecMode.PURE_EBPF:
            return self._ebpf_draws(n)
        self.rt.charge(self._price(n), self.category)
        pool = self._pool
        out = []
        for _ in range(n):
            if not pool:
                self._fill(self.capacity)
            out.append(pool.popleft())
        if len(pool) < self.capacity // 4:
            self._fill(self.capacity - len(pool))
        return out

    @property
    def level(self) -> int:
        return len(self._pool)


class GeoRandomPool(RandomPool):
    """A pool of geometric(p) skip counts for probabilistic updating.

    ``draw()`` returns the number of events until the next success
    (1-based).  A sampler that updates with probability ``p`` draws one
    skip count per *update* instead of one uniform per *packet*.
    """

    def __init__(self, rt: BpfRuntime, p: float, capacity: int = 2048) -> None:
        if not 0.0 < p <= 1.0:
            raise ValueError("p must be in (0, 1]")
        self.p = p
        super().__init__(rt, capacity)

    def _sample(self) -> int:
        if self.p >= 1.0:
            return 1
        u = self.rt.raw_random()
        # Inverse-CDF: ceil(ln(1-u) / ln(1-p)), >= 1.
        return max(1, math.ceil(math.log(1.0 - u) / math.log(1.0 - self.p)))

    def _price(self, n: int) -> int:
        return self.prices.geo_draw(n)

    def _ebpf_draws(self, n: int) -> List[int]:
        # Pure eBPF cannot host the pool; it burns a helper call per
        # packet and compares against p (modeled by the caller).
        raise PoolEmptyError(
            "geo pools are an eNetSTL/kernel facility; pure-eBPF NFs "
            "sample per packet via bpf_get_prandom_u32"
        )
