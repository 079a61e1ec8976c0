"""Graceful-degradation policies for sketch NFs.

A sketch that runs long enough saturates: counters grow without bound,
estimates drift, and a real deployment must *age* the structure rather
than fall over.  :class:`SketchDegradation` packages the three standard
responses as a pluggable policy an NF consults after its updates:

- ``"halve"``  — floor-divide every counter by two (exponential decay:
  heavy hitters stay heavy, noise fades — ElasticSketch-style aging);
- ``"reset"``  — zero the sketch and start a fresh epoch;
- ``"clamp"``  — saturate counters at ``cap`` (what a fixed-width
  hardware counter does: stop growing instead of wrapping).

The policy triggers every ``threshold`` updates.  Application is
control-plane maintenance (uncosted): the kernel side would run it from
a timer or the userspace agent, off the packet path, so data-path cycle
accounting stays bit-identical whether or not a policy is attached.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

POLICIES = ("halve", "reset", "clamp")


class SketchDegradation:
    """Saturation policy: every ``threshold`` updates, age the sketch."""

    def __init__(
        self,
        threshold: int,
        policy: str = "halve",
        cap: Optional[int] = None,
    ) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if policy not in POLICIES:
            raise ValueError(
                f"policy must be one of {POLICIES}, got {policy!r}"
            )
        if cap is not None and cap <= 0:
            raise ValueError("cap must be positive")
        self.threshold = threshold
        self.policy = policy
        self.cap = cap if cap is not None else threshold
        #: Times the policy fired (the degradation ledger).
        self.events = 0
        self._last_applied_at = 0

    def due_in(self, total: int) -> int:
        """Updates after cumulative count ``total`` until the policy
        fires (at least one: it is checked only after an update)."""
        return max(1, self._last_applied_at + self.threshold - total)

    def maybe_apply(self, rows: List[List[int]], total: int) -> bool:
        """Fire the policy if ``total`` crossed the next threshold.

        ``total`` is the sketch's cumulative update count; ``rows`` is
        mutated in place.  Returns True when the policy fired.
        """
        if total - self._last_applied_at < self.threshold:
            return False
        self._last_applied_at = total
        self.events += 1
        if self.policy == "halve":
            for row in rows:
                for i, v in enumerate(row):
                    if v:
                        row[i] = v >> 1
        elif self.policy == "reset":
            for row in rows:
                for i in range(len(row)):
                    row[i] = 0
        else:  # clamp
            cap = self.cap
            for row in rows:
                for i, v in enumerate(row):
                    if v > cap:
                        row[i] = cap
        return True

    def describe(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "threshold": self.threshold,
            "cap": self.cap,
            "events": self.events,
        }


class ColdStartWarmup:
    """Cold-sketch warm-up penalty after a core rejoins with state loss.

    A core that crashed and rejoined lost its per-CPU state: sketches
    are zeroed, flow tables empty, Bloom filters all-clear.  Until the
    structures refill, the data path runs *slower* — every first-seen
    flow takes the insert/miss path (map insert instead of counter
    bump, cuckoo kick chains, LRU allocation), and control logic built
    on sketch estimates misfires.  The refill follows the same
    coupon-collector curve that governs count-min/Bloom accuracy: after
    ``m`` packets over a flow population of ``~tau`` active flows, the
    probability the next packet's flow is still unseen — i.e. still
    pays the cold path — is ``exp(-m / tau)``.

    The model charges ``penalty_cycles * exp(-m / tau_packets)`` extra
    cycles for the ``m``-th packet since rejoin, folded into the
    *service time* of the queueing model (like the NUMA penalty, it is
    kept out of the NF's own cycle ledger so healthy-path accounting
    stays bit-identical).  ``fill_fraction`` exposes the refill curve
    directly for accuracy-style reporting.
    """

    def __init__(
        self, penalty_cycles: int = 120, tau_packets: int = 4096
    ) -> None:
        if penalty_cycles < 0:
            raise ValueError(
                f"penalty_cycles must be non-negative, got {penalty_cycles}"
            )
        if tau_packets <= 0:
            raise ValueError(
                f"tau_packets must be positive, got {tau_packets}"
            )
        self.penalty_cycles = penalty_cycles
        self.tau_packets = tau_packets

    def fill_fraction(self, packets_since_rejoin: int) -> float:
        """Share of the active flow population re-learned after ``m``."""
        if packets_since_rejoin < 0:
            raise ValueError("packets_since_rejoin must be non-negative")
        return 1.0 - math.exp(-packets_since_rejoin / self.tau_packets)

    def penalty_at(self, packets_since_rejoin: int) -> int:
        """Extra service cycles the ``m``-th post-rejoin packet pays."""
        cold = 1.0 - self.fill_fraction(packets_since_rejoin)
        return int(round(self.penalty_cycles * cold))

    @property
    def horizon_packets(self) -> int:
        """Packets until the penalty rounds to zero (~warm again)."""
        if self.penalty_cycles == 0:
            return 0
        # exp(-m/tau) * penalty < 0.5  =>  m > tau * ln(2 * penalty)
        return int(self.tau_packets * math.log(2.0 * self.penalty_cycles)) + 1

    def describe(self) -> Dict[str, object]:
        return {
            "penalty_cycles": self.penalty_cycles,
            "tau_packets": self.tau_packets,
            "horizon_packets": self.horizon_packets,
        }


__all__ = ["ColdStartWarmup", "POLICIES", "SketchDegradation"]
