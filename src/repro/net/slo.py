"""SLO-aware resilience control loop over the queueing model.

The queueing model (:mod:`repro.net.queueing`) makes tail latency an
*output*; this module closes the loop and makes it a *target*.  A
:class:`SloController` drives a provisioned fleet of per-core pipelines
through a timestamped trace in fixed-size **epochs**, and after every
epoch it observes p50/p95/p99 sojourn latency and acts:

- **Fault-aware steering.**  Flows map to cores through the package's
  one bucket table, :class:`~repro.net.steering.IndirectionTable` (the
  RSS indirection table / ``ethtool -X`` abstraction, re-exported
  here).  When a core dies or is parked, only the buckets that pointed
  at it move — a minimal-disruption re-pack, not a rehash of the world
  — so surviving flows keep their affinity and their per-CPU NF state.
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

Everything is deterministic: same trace + same seeds -> the identical
timeline of :class:`EpochStats`, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..ebpf.percpu import sum_counts
from ..faults import FaultInjector, FaultPlan, WedgeDetection
from ..nfs.degrade import ColdStartWarmup
from .fleet import (
    DEFAULT_WATCHDOG_DEADLINE,
    AllCoresDeadError,
    CoreFailure,
    Fleet,
    PacketAccounting,
)
from .packet import Packet, XdpAction
from .queueing import QueueingConfig, latency_summary_us
from .steering import IndirectionTable
from .xdp import (
    DEFAULT_BATCH_SIZE,
    FORWARD_ACTIONS,
    NetworkFunction,
    ReplaySession,
    XdpPipeline,
)

__all__ = [
    "CoreAutoscaler",
    "EpochStats",
    "IndirectionTable",
    "SloConfig",
    "SloController",
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

    def describe(self) -> Dict[str, object]:
        return {
            "min_cores": self.min_cores,
            "max_cores": self.max_cores,
            "target_p99_us": self.target_p99_us,
            "high_water": self.high_water,
            "low_water": self.low_water,
            "cooldown_epochs": self.cooldown_epochs,
            "max_backoff_epochs": self.max_backoff_epochs,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
        }


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

    def __post_init__(self) -> None:
        if self.target_p99_us <= 0:
            raise ValueError("target_p99_us must be positive")
        if self.epoch_packets <= 0:
            raise ValueError("epoch_packets must be positive")
        if self.min_cores <= 0:
            raise ValueError("min_cores must be positive")
        if not 0 < self.low_water < self.high_water:
            raise ValueError(
                "need 0 < low_water < high_water "
                f"(got {self.low_water} / {self.high_water})"
            )
        if self.cooldown_epochs < 0:
            raise ValueError("cooldown_epochs must be non-negative")
        if self.max_backoff_epochs < self.cooldown_epochs:
            raise ValueError("max_backoff_epochs must be >= cooldown_epochs")
        if self.rejoin_epochs < 0:
            raise ValueError("rejoin_epochs must be non-negative")

    def describe(self) -> Dict[str, object]:
        return {
            "target_p99_us": self.target_p99_us,
            "epoch_packets": self.epoch_packets,
            "autoscale": self.autoscale,
            "min_cores": self.min_cores,
            "high_water": self.high_water,
            "low_water": self.low_water,
            "cooldown_epochs": self.cooldown_epochs,
            "max_backoff_epochs": self.max_backoff_epochs,
            "rejoin_epochs": self.rejoin_epochs,
        }


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


@dataclass
class SloRun(PacketAccounting):
    """Full outcome of one controlled replay: timeline + accounting."""

    timeline: List[EpochStats]
    config: SloConfig
    packets_in: int = 0
    forwarded: int = 0
    nf_dropped: int = 0
    aborted: int = 0
    duplicated: int = 0
    lost: int = 0
    overflow: int = 0
    latencies_ns: List[int] = field(default_factory=list)
    failures: List[CoreFailure] = field(default_factory=list)
    #: Injected-fault counts by kind, over every session the run built
    #: (a reborn core's included).
    injected: Dict[str, int] = field(default_factory=dict)
    #: Per-kind error counters, summed the same way.
    errors: Dict[str, int] = field(default_factory=dict)

    @property
    def overflow_drops(self) -> int:
        return self.overflow

    def latency_summary(self) -> Dict[str, float]:
        return latency_summary_us(self.latencies_ns)

    @property
    def worst_p99_us(self) -> float:
        return max((e.p99_us for e in self.timeline), default=0.0)

    def violating_epochs(self) -> List[int]:
        """Epoch indices whose p99 breached the configured target."""
        return [
            e.epoch for e in self.timeline
            if not e.meets(self.config.target_p99_us)
        ]

    def recovery_s(self, settle_epochs: int = 2) -> Optional[float]:
        """Time from the first SLO breach back to sustained compliance.

        Sustained means ``settle_epochs`` consecutive compliant epochs;
        returns None if the run never breached, or breached and never
        recovered.  This is the benchmark's *time-to-SLO* metric.
        """
        return time_to_slo_s(
            self.timeline, self.config.target_p99_us, settle_epochs
        )

    def describe(self) -> Dict[str, object]:
        return {
            "config": self.config.describe(),
            "accounting": self.accounting(),
            "latency": self.latency_summary(),
            "worst_p99_us": self.worst_p99_us,
            "violating_epochs": self.violating_epochs(),
            "recovery_s": self.recovery_s(),
            "failures": [f.describe() for f in self.failures],
            "timeline": [e.describe() for e in self.timeline],
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


class SloController:
    """Epoch-driven SLO loop over a provisioned per-core fleet.

    ``nf_factory(core)`` provisions ``max_cores`` pipelines up front
    (one private runtime per core, like
    :class:`~repro.net.multicore.RssDispatcher`); ``initial_cores`` of
    them start active, the rest are parked headroom for the
    autoscaler.  :meth:`run` replays a *timestamped* trace through the
    queueing model (same mechanics as the dispatcher's latency path)
    and closes a control epoch every ``config.epoch_packets``
    arrivals.

    Failures come from an optional :class:`~repro.faults.FaultPlan`
    (``crash_core`` / ``wedge_core``, per-core packet counts), wedge
    detection from ``detection`` (falling back to a fixed deadline),
    and a rejoining core pays ``warmup``'s cold-sketch service
    penalty.  The whole run is a pure function of its inputs.

    The data plane is the dispatcher's timed :class:`~repro.net.fleet.Fleet`
    loop, steering through :attr:`table` with re-pack on failure on;
    the controller's own code is the epoch hook (close the epoch,
    retire and rejoin repaired cores, autoscale).
    """

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
        if max_cores <= 0:
            raise ValueError("max_cores must be positive")
        self.config = config or SloConfig()
        if self.config.min_cores > max_cores:
            raise ValueError(
                f"config.min_cores={self.config.min_cores} exceeds "
                f"max_cores={max_cores}"
            )
        if initial_cores is None:
            initial_cores = max_cores
        if not self.config.min_cores <= initial_cores <= max_cores:
            raise ValueError(
                f"initial_cores={initial_cores} must lie in "
                f"[{self.config.min_cores}, {max_cores}]"
            )
        if watchdog_deadline <= 0:
            raise ValueError("watchdog_deadline must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if faults is not None:
            faults.validate_for_cores(max_cores)
        self.nf_factory = nf_factory
        self.max_cores = max_cores
        self.initial_cores = initial_cores
        self.queueing = queueing or QueueingConfig()
        self.faults = faults
        self.detection = detection
        self.warmup = warmup
        self.watchdog_deadline = watchdog_deadline
        self.batch_size = batch_size
        self.table = IndirectionTable(max_cores)
        self.autoscaler = CoreAutoscaler(
            min_cores=self.config.min_cores,
            max_cores=max_cores,
            target_p99_us=self.config.target_p99_us,
            high_water=self.config.high_water,
            low_water=self.config.low_water,
            cooldown_epochs=self.config.cooldown_epochs,
            max_backoff_epochs=self.config.max_backoff_epochs,
        )

    def run(self, trace: Iterable[Packet]) -> SloRun:
        conf = self.config
        injectors: List[FaultInjector] = []

        def build_session(core: int) -> ReplaySession:
            nf = self.nf_factory(core)
            injector = None
            if self.faults is not None:
                injector = self.faults.injector(core)
                injectors.append(injector)
            return ReplaySession(XdpPipeline(nf, faults=injector))

        n = self.max_cores
        parked = set(range(self.initial_cores, n))
        #: A core joins cold (its warmup restarts) unless it joined
        #: since it was born or reborn.
        cold = [True] * n
        rejoin_at: Dict[int, int] = {}
        timeline: List[EpochStats] = []
        events: List[str] = []
        epoch = 0
        epoch_start_ns = 0
        lat_at_epoch = 0
        lost_at_epoch = 0
        over_at_epoch = 0

        def on_failure(record: CoreFailure) -> None:
            if not any(fleet.serving):
                raise AllCoresDeadError(
                    "every core has failed; traffic has nowhere to go"
                )
            events.append(f"{record.kind} core={record.core}")
            if conf.rejoin_epochs > 0:
                rejoin_at[record.core] = epoch + conf.rejoin_epochs

        self.table.assign(range(self.initial_cores))
        fleet = Fleet(
            [build_session(core) for core in range(n)],
            self.table,
            faults=self.faults,
            detection=self.detection,
            watchdog_deadline=self.watchdog_deadline,
            repack_on_failure=True,
            n_serving=self.initial_cores,
            warmup=self.warmup,
            on_failure=on_failure,
        )

        def join(core: int, reason: str) -> None:
            """Activate a parked or rejoining core (cold if new/reborn)."""
            parked.discard(core)
            if cold[core]:
                fleet.since_join[core] = 0
            cold[core] = False
            fleet.join(core)
            events.append(f"{reason} core={core}")

        def close_epoch(now: int) -> List[Packet]:
            """Record the epoch, then repair and scale the fleet.

            Returns the frames a scale-down stranded in a parked ring.
            """
            nonlocal epoch, epoch_start_ns
            nonlocal lat_at_epoch, lost_at_epoch, over_at_epoch
            epoch_lat = fleet.latencies[lat_at_epoch:]
            summary = latency_summary_us(epoch_lat)
            total_lost = sum(fleet.lost)
            total_over = fleet.overflow_drops
            stats = EpochStats(
                epoch=epoch,
                start_ns=epoch_start_ns,
                end_ns=now,
                packets=len(epoch_lat),
                active_cores=fleet.serving_cores(),
                p50_us=summary["p50_us"],
                p95_us=summary["p95_us"],
                p99_us=summary["p99_us"],
                overflow=total_over - over_at_epoch,
                lost=total_lost - lost_at_epoch,
                events=list(events),
            )
            timeline.append(stats)
            events.clear()
            lat_at_epoch = len(fleet.latencies)
            lost_at_epoch = total_lost
            over_at_epoch = total_over
            epoch += 1
            epoch_start_ns = now
            # Repairs land first: a reborn core (fresh NF + runtime,
            # cold sketches — the state loss) enters the parked pool.
            for core in sorted(rejoin_at):
                if rejoin_at[core] <= epoch:
                    del rejoin_at[core]
                    fleet.retire(core, build_session(core))
                    cold[core] = True
                    parked.add(core)
            if not conf.autoscale:
                # No autoscaler: a repaired core rejoins the moment it
                # is back (restore-to-provisioned) — partial recovery
                # is a property of the fleet, not of the scaler.
                for core in sorted(parked):
                    if core < self.initial_cores:
                        join(core, "rejoin")
                return []
            action = self.autoscaler.decide(
                stats.p99_us, len(stats.active_cores)
            )
            if action == "up":
                if parked:
                    join(min(parked), "scale-up")
                else:
                    self.autoscaler.scale_ups -= 1
                    events.append("scale-up blocked: no spare core")
            elif action == "down":
                victims = fleet.serving_cores()
                if len(victims) > conf.min_cores:
                    core = victims[-1]
                    events.append(f"scale-down core={core}")
                    parked.add(core)
                    return fleet.park(core)
            return []

        fleet.run_timed(
            trace, self.queueing, self.batch_size,
            epoch_packets=conf.epoch_packets, on_epoch=close_epoch,
        )
        if len(fleet.latencies) > lat_at_epoch or events:
            close_epoch(fleet.now)

        results = fleet.finish() + fleet.retired
        actions = sum_counts([r.actions for r in results])
        return SloRun(
            timeline=timeline,
            config=conf,
            packets_in=fleet.packets_in,
            forwarded=sum(actions.get(a, 0) for a in FORWARD_ACTIONS),
            nf_dropped=actions.get(XdpAction.DROP, 0),
            aborted=actions.get(XdpAction.ABORTED, 0),
            duplicated=sum(r.duplicated for r in results),
            lost=sum(fleet.lost),
            overflow=fleet.overflow_drops,
            latencies_ns=fleet.latencies,
            failures=fleet.failures,
            injected=sum_counts([i.injected for i in injectors]),
            errors=sum_counts([r.errors for r in results]),
        )
