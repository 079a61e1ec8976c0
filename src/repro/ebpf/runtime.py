"""Simulated eBPF runtime: execution context, helpers, and clock.

A :class:`BpfRuntime` stands in for one CPU core running eBPF programs
(the paper pins all traffic to a single core via RSS).  It owns:

- the cycle counter programs charge as they execute,
- the cost model and execution mode,
- a deterministic PRNG backing ``bpf_get_prandom_u32``,
- a simulated nanosecond clock backing ``bpf_ktime_get_ns``.

Helper functions are methods; each charges its documented cost before
doing its (real) work, mirroring how helper-call overhead dominates some
NFs in the paper (§2.2 P2).
"""

from __future__ import annotations

import random
from typing import Optional

from .cost_model import Category, CostModel, Cycles, DEFAULT_COSTS, ExecMode


class BpfRuntime:
    """One simulated core's eBPF execution context."""

    def __init__(
        self,
        mode: ExecMode = ExecMode.PURE_EBPF,
        costs: CostModel = DEFAULT_COSTS,
        seed: int = 0,
    ) -> None:
        self.mode = mode
        self.costs = costs
        self.cycles = Cycles()
        #: ``charge(cycles, category=Category.OTHER)``: the counter's
        #: own bound method, so the simulator's hottest call costs one
        #: Python frame, not two.  A negative charge raises ValueError.
        self.charge = self.cycles.charge
        self._prng = random.Random(seed)
        self._ktime_ns = 0
        #: Optional :class:`repro.faults.FaultInjector` — when set, the
        #: simulated maps fail updates on its schedule (E2BIG/ENOMEM),
        #: mirroring how real helper calls return error codes.  Duck
        #: typed to keep repro.ebpf free of a repro.faults import.
        self.faults = None

    # -- helpers ----------------------------------------------------------

    def prandom_u32(self, category: Category = Category.RANDOM) -> int:
        """``bpf_get_prandom_u32``: costly per-packet helper call."""
        self.charge(self.costs.prandom_helper, category)
        return self._prng.getrandbits(32)

    def raw_random_u32(self) -> int:
        """Uncosted PRNG draw (for internal pool refills / test setup)."""
        return self._prng.getrandbits(32)

    def raw_random(self) -> float:
        return self._prng.random()

    def ktime_get_ns(self) -> int:
        """``bpf_ktime_get_ns``: read the simulated clock."""
        self.charge(self.costs.helper_call, Category.FRAMEWORK)
        return self._ktime_ns

    def advance_time_ns(self, ns: int) -> None:
        """Advance the simulated clock (driven by the pipeline)."""
        if ns < 0:
            raise ValueError("time cannot move backwards")
        self._ktime_ns += ns

    @property
    def now_ns(self) -> int:
        return self._ktime_ns

    def spin_lock(self, category: Category = Category.FUNDAMENTAL_DS) -> None:
        """``bpf_spin_lock``: charged on the eBPF path only.

        eBPF mandates spin locks around BPF linked-list mutation; the
        kernel and eNetSTL variants use percpu data instead (§4.3).
        """
        self.charge(self.costs.spin_lock, category)

    def spin_unlock(self, category: Category = Category.FUNDAMENTAL_DS) -> None:
        self.charge(self.costs.spin_unlock, category)

    def reset(self, seed: Optional[int] = None) -> None:
        """Clear counters and optionally reseed (fresh measurement run)."""
        self.cycles.reset()
        self._ktime_ns = 0
        if seed is not None:
            self._prng = random.Random(seed)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BpfRuntime(mode={self.mode.value}, cycles={self.cycles.total})"
