"""SLO-aware resilience control loop over the queueing model.

The queueing model (:mod:`repro.net.queueing`) makes tail latency an
*output*; this module closes the loop and makes it a *target*.  Pass
an :class:`SloConfig` to the one dispatcher,
``RssDispatcher(..., queueing=..., slo=SloConfig(...))``, and its timed
loop closes a control **epoch** every ``epoch_packets`` arrivals; after
every epoch the :class:`SloLoop` hook observes p50/p95/p99 sojourn
latency and acts:

- **Fault-aware steering.**  By default flows map to cores through the
  package's one bucket table,
  :class:`~repro.net.steering.IndirectionTable` (the RSS indirection
  table / ``ethtool -X`` abstraction, re-exported here).  When a core
  dies or is parked, only the buckets that pointed at it move — a
  minimal-disruption re-pack, not a rehash of the world — so surviving
  flows keep their affinity and their per-CPU NF state.
- **Partial recovery.**  A crashed core rejoins ``rejoin_epochs``
  later with a *fresh* NF instance (per-CPU state is gone) and pays a
  :class:`~repro.nfs.degrade.ColdStartWarmup` service-time penalty
  that decays as its sketches refill (coupon-collector curve) — the
  p99 dip-and-recover shape real partial recoveries show.
- **Probabilistic wedge detection.**  A wedged core is declared dead
  once its lost-packet pile crosses a per-core deadline drawn from
  :class:`~repro.faults.WedgeDetection` (shifted-exponential detection
  latency) instead of one fixed watchdog constant.
- **Autoscaling.**  :class:`CoreAutoscaler` adds a parked core when
  p99 breaches the target and parks one when p99 sits far below it —
  with hysteresis (separate high/low water marks), a cooldown between
  actions, and exponential backoff on scale-ups that fail to bring the
  fleet back under target.

The run returns the dispatcher's
:class:`~repro.net.multicore.MulticoreResult` with the timeline of
:class:`EpochStats` on it.  Everything is deterministic: same trace +
same seeds -> the identical timeline, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..faults import FaultPlan, WedgeDetection
from ..nfs.degrade import ColdStartWarmup
from .fleet import (
    DEFAULT_WATCHDOG_DEADLINE,
    AllCoresDeadError,
    CoreFailure,
    Fleet,
)
from .multicore import MulticoreResult, RssDispatcher
from .packet import Packet
from .queueing import QueueingConfig, latency_summary_us
from .steering import IndirectionTable
from .xdp import DEFAULT_BATCH_SIZE, NetworkFunction, ReplaySession

__all__ = [
    "CoreAutoscaler",
    "EpochStats",
    "IndirectionTable",
    "SloConfig",
    "SloController",
    "SloLoop",
    "SloRun",
    "time_to_slo_s",
]


class CoreAutoscaler:
    """Hysteresis + cooldown + backoff p99-targeting core scaler.

    Per epoch, :meth:`decide` sees the epoch's p99 and the active core
    count and returns ``"up"``, ``"down"``, or ``"hold"``:

    - **up** when ``p99 > high_water * target`` and a parked core is
      available;
    - **down** when ``p99 < low_water * target`` (the hysteresis band
      keeps up/down from oscillating around one threshold);
    - otherwise **hold**.

    After any action the scaler holds for ``cooldown_epochs`` so the
    fleet's latency can settle.  A scale-up that *fails* — p99 still
    over target once the cooldown expires — doubles the wait before
    the next attempt (retry with exponential backoff, capped at
    ``max_backoff_epochs``); one compliant epoch resets the backoff.
    """

    def __init__(
        self,
        min_cores: int,
        max_cores: int,
        target_p99_us: float,
        high_water: float = 1.0,
        low_water: float = 0.5,
        cooldown_epochs: int = 2,
        max_backoff_epochs: int = 8,
    ) -> None:
        if min_cores <= 0:
            raise ValueError("min_cores must be positive")
        if max_cores < min_cores:
            raise ValueError("max_cores must be >= min_cores")
        if target_p99_us <= 0:
            raise ValueError("target_p99_us must be positive")
        if not 0 < low_water < high_water:
            raise ValueError(
                "need 0 < low_water < high_water "
                f"(got {low_water} / {high_water})"
            )
        if cooldown_epochs < 0:
            raise ValueError("cooldown_epochs must be non-negative")
        if max_backoff_epochs < cooldown_epochs:
            raise ValueError("max_backoff_epochs must be >= cooldown_epochs")
        self.min_cores = min_cores
        self.max_cores = max_cores
        self.target_p99_us = target_p99_us
        self.high_water = high_water
        self.low_water = low_water
        self.cooldown_epochs = cooldown_epochs
        self.max_backoff_epochs = max_backoff_epochs
        self._hold = 0
        self._backoff = cooldown_epochs
        self._last_was_up = False
        self.scale_ups = 0
        self.scale_downs = 0

    def decide(self, p99_us: float, active_count: int) -> str:
        over = p99_us > self.high_water * self.target_p99_us
        under = p99_us < self.low_water * self.target_p99_us
        if not over:
            # Back under target: the last scale-up worked, reset backoff.
            self._backoff = self.cooldown_epochs
            self._last_was_up = False
        if self._hold > 0:
            self._hold -= 1
            return "hold"
        if over and self._last_was_up:
            # Previous scale-up expired its cooldown without fixing the
            # breach: retry, but wait longer before judging again.
            self._backoff = min(self._backoff * 2, self.max_backoff_epochs)
        if over and active_count < self.max_cores:
            self.scale_ups += 1
            self._hold = max(self._backoff, 1) - 1
            self._last_was_up = True
            return "up"
        if under and active_count > self.min_cores:
            self.scale_downs += 1
            self._hold = max(self.cooldown_epochs, 1) - 1
            self._last_was_up = False
            return "down"
        return "hold"


@dataclass(frozen=True)
class SloConfig:
    """Targets and cadence of the control loop."""

    target_p99_us: float = 60.0
    epoch_packets: int = 2048
    autoscale: bool = True
    min_cores: int = 1
    high_water: float = 1.0
    low_water: float = 0.5
    cooldown_epochs: int = 2
    max_backoff_epochs: int = 8
    #: Epochs a dead core stays down before rejoining (0: never).
    rejoin_epochs: int = 4
    #: Cores serving at the start (None: all); the rest are parked
    #: headroom for the autoscaler.
    initial_cores: Optional[int] = None
    #: Service penalty of a core that joins cold (None: no penalty).
    warmup: Optional[ColdStartWarmup] = None

    def __post_init__(self) -> None:
        # The scaler checks the target, min_cores, water marks,
        # cooldown and backoff it is built from.
        self.autoscaler(self.min_cores)
        if self.epoch_packets <= 0:
            raise ValueError("epoch_packets must be positive")
        if self.rejoin_epochs < 0:
            raise ValueError("rejoin_epochs must be non-negative")
        if (self.initial_cores is not None
                and self.initial_cores < self.min_cores):
            raise ValueError(
                f"initial_cores={self.initial_cores} is below "
                f"min_cores={self.min_cores}"
            )

    def autoscaler(self, max_cores: int) -> CoreAutoscaler:
        """A fresh scaler with this config's knobs, up to ``max_cores``."""
        return CoreAutoscaler(
            min_cores=self.min_cores,
            max_cores=max_cores,
            target_p99_us=self.target_p99_us,
            high_water=self.high_water,
            low_water=self.low_water,
            cooldown_epochs=self.cooldown_epochs,
            max_backoff_epochs=self.max_backoff_epochs,
        )


@dataclass
class EpochStats:
    """One control epoch: what the fleet saw and what the loop did."""

    epoch: int
    start_ns: int
    end_ns: int
    packets: int
    active_cores: List[int]
    p50_us: float = 0.0
    p95_us: float = 0.0
    p99_us: float = 0.0
    overflow: int = 0
    lost: int = 0
    #: Control-plane events this epoch ("crash core=2", "scale-up", ...).
    events: List[str] = field(default_factory=list)

    @property
    def n_active(self) -> int:
        return len(self.active_cores)

    def meets(self, target_p99_us: float) -> bool:
        return self.p99_us <= target_p99_us

    def describe(self) -> Dict[str, object]:
        return {
            "epoch": self.epoch,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "packets": self.packets,
            "active_cores": list(self.active_cores),
            "p50_us": self.p50_us,
            "p95_us": self.p95_us,
            "p99_us": self.p99_us,
            "overflow": self.overflow,
            "lost": self.lost,
            "events": list(self.events),
        }


def time_to_slo_s(
    timeline: Sequence[EpochStats],
    target_p99_us: float,
    settle_epochs: int = 2,
) -> Optional[float]:
    """Seconds from the first p99 breach to sustained compliance.

    Measured from the *end* of the first violating epoch to the end of
    the first of ``settle_epochs`` consecutive compliant epochs.  None
    when nothing ever breached, or the breach never healed.
    """
    if settle_epochs <= 0:
        raise ValueError("settle_epochs must be positive")
    breach_ns: Optional[int] = None
    streak = 0
    for e in timeline:
        if not e.meets(target_p99_us):
            if breach_ns is None:
                breach_ns = e.end_ns
            streak = 0
        elif breach_ns is not None:
            streak += 1
            if streak >= settle_epochs:
                return (e.end_ns - breach_ns) / 1e9
    return None


class SloLoop:
    """The SLO control loop: an epoch hook on a timed :class:`Fleet`.

    :class:`~repro.net.multicore.RssDispatcher` builds one per run when
    it has an ``slo`` config, hands :meth:`close_epoch` to
    :meth:`Fleet.run_timed` as its ``on_epoch`` and calls :meth:`finish`
    when the stream ends.  The loop parks all but ``initial_cores`` and
    fills the steering policy over the serving ones, re-packs on every
    failure, and ``rebuild(core)`` makes the fresh session of a core
    that rejoins after a failure.
    """

    def __init__(
        self,
        fleet: Fleet,
        config: SloConfig,
        rebuild: Callable[[int], ReplaySession],
    ) -> None:
        n = len(fleet.sessions)
        self.fleet = fleet
        self.config = config
        self.rebuild = rebuild
        self.initial_cores = config.initial_cores or n
        self.autoscaler = config.autoscaler(n)
        self.parked = set(range(self.initial_cores, n))
        #: A core joins cold (its warmup restarts) unless it joined
        #: since it was born or reborn.
        self.cold = [True] * n
        self.rejoin_at: Dict[int, int] = {}
        self.timeline: List[EpochStats] = []
        self.events: List[str] = []
        self.epoch = self.epoch_start_ns = 0
        #: Fleet totals at the last epoch boundary.
        self.lat_at_epoch = self.lost_at_epoch = self.over_at_epoch = 0
        fleet.policy.assign(range(self.initial_cores))
        fleet.serving = [core < self.initial_cores for core in range(n)]
        fleet.repack_on_failure = True
        fleet.warmup = config.warmup
        fleet.on_failure = self.on_failure

    def on_failure(self, record: CoreFailure) -> None:
        if not any(self.fleet.serving):
            raise AllCoresDeadError(
                "every core has failed; traffic has nowhere to go"
            )
        self.events.append(f"{record.kind} core={record.core}")
        if self.config.rejoin_epochs > 0:
            self.rejoin_at[record.core] = (
                self.epoch + self.config.rejoin_epochs
            )

    def join(self, core: int, reason: str) -> None:
        """Activate a parked or rejoining core (cold if new/reborn)."""
        self.parked.discard(core)
        if self.cold[core]:
            self.fleet.since_join[core] = 0
        self.cold[core] = False
        self.fleet.join(core)
        self.events.append(f"{reason} core={core}")

    def close_epoch(self, now: int) -> List[Packet]:
        """Record the epoch, then repair and scale the fleet.

        Returns the frames a scale-down stranded in a parked ring.
        """
        fleet, conf, events = self.fleet, self.config, self.events
        epoch_lat = fleet.latencies[self.lat_at_epoch:]
        summary = latency_summary_us(epoch_lat)
        total_lost = sum(fleet.lost)
        total_over = fleet.overflow_drops
        stats = EpochStats(
            epoch=self.epoch,
            start_ns=self.epoch_start_ns,
            end_ns=now,
            packets=len(epoch_lat),
            active_cores=fleet.serving_cores(),
            p50_us=summary["p50_us"],
            p95_us=summary["p95_us"],
            p99_us=summary["p99_us"],
            overflow=total_over - self.over_at_epoch,
            lost=total_lost - self.lost_at_epoch,
            events=list(events),
        )
        self.timeline.append(stats)
        events.clear()
        self.lat_at_epoch = len(fleet.latencies)
        self.lost_at_epoch = total_lost
        self.over_at_epoch = total_over
        self.epoch += 1
        self.epoch_start_ns = now
        # Repairs land first: a reborn core (fresh NF + runtime,
        # cold sketches — the state loss) enters the parked pool.
        for core in sorted(self.rejoin_at):
            if self.rejoin_at[core] <= self.epoch:
                del self.rejoin_at[core]
                fleet.retire(core, self.rebuild(core))
                self.cold[core] = True
                self.parked.add(core)
        if not conf.autoscale:
            # No autoscaler: a repaired core rejoins the moment it
            # is back (restore-to-provisioned) — partial recovery
            # is a property of the fleet, not of the scaler.
            for core in sorted(self.parked):
                if core < self.initial_cores:
                    self.join(core, "rejoin")
            return []
        action = self.autoscaler.decide(
            stats.p99_us, len(stats.active_cores)
        )
        if action == "up":
            if self.parked:
                self.join(min(self.parked), "scale-up")
            else:
                self.autoscaler.scale_ups -= 1
                events.append("scale-up blocked: no spare core")
        elif action == "down":
            victims = fleet.serving_cores()
            if len(victims) > conf.min_cores:
                core = victims[-1]
                events.append(f"scale-down core={core}")
                self.parked.add(core)
                return fleet.park(core)
        return []

    def finish(self) -> List[EpochStats]:
        """Close the last, partial epoch; returns the whole timeline."""
        if len(self.fleet.latencies) > self.lat_at_epoch or self.events:
            self.close_epoch(self.fleet.now)
        return self.timeline


#: The dispatcher's result, under the name the SLO loop's runs had.
SloRun = MulticoreResult


class SloController(RssDispatcher):
    """``RssDispatcher(slo=...)`` under its earlier name and signature:
    ``max_cores`` cores, ``initial_cores`` and ``warmup`` folded into
    ``config``, and :meth:`run` in ``batch_size`` batches."""

    def __init__(
        self,
        nf_factory: Callable[[int], NetworkFunction],
        max_cores: int,
        config: Optional[SloConfig] = None,
        queueing: Optional[QueueingConfig] = None,
        initial_cores: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
        detection: Optional[WedgeDetection] = None,
        warmup: Optional[ColdStartWarmup] = None,
        watchdog_deadline: int = DEFAULT_WATCHDOG_DEADLINE,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        super().__init__(
            nf_factory,
            max_cores,
            faults=faults,
            watchdog_deadline=watchdog_deadline,
            queueing=queueing or QueueingConfig(),
            detection=detection,
            slo=replace(config or SloConfig(), initial_cores=initial_cores,
                        warmup=warmup),
        )
        self.batch_size = batch_size

    def run(self, trace: Iterable[Packet]) -> MulticoreResult:
        return super().run(trace, self.batch_size)
