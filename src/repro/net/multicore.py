"""Multi-queue (RSS) data plane: shard one trace across N simulated cores.

The paper pins all traffic to a single receive queue/core (§6.1) and
reports single-core saturation PPS.  Real deployments scale out: the
NIC's receive-side scaling (RSS) hashes each packet's 5-tuple onto a
receive queue, each queue is serviced by one core, and one XDP program
instance runs per core with per-CPU state — exactly the regime the
eBPF-Flow-Collector work uses to reach lossless 10 Gb/s capture by
"gradually increasing the number of utilized CPU cores".

This module simulates that regime faithfully:

- :class:`RssDispatcher` hashes every packet's 5-tuple (Toeplitz
  stand-in) onto one of ``n_cores`` queues.  All packets of a flow land
  on the same core — flow affinity is what makes per-CPU NF state
  coherent without locks.
- Each core is an independent ``BpfRuntime`` + NF + :class:`XdpPipeline`
  (built by a caller-supplied factory), mirroring per-CPU eBPF
  semantics: no shared counters, no cross-core synchronization on the
  data path.
- :class:`MulticoreResult` aggregates the per-core
  :class:`PipelineResult` into system-level metrics: aggregate PPS (the
  wall clock is set by the busiest core), the load-imbalance factor
  (max/mean core load — Zipf traces visibly skew it), and a
  lossless-capture check (offered rate vs. per-core saturation).
- The ``merged_*`` helpers fold per-CPU sketch state back together
  (:mod:`repro.ebpf.percpu`) so count-min/NitroSketch estimates remain
  correct when sharded: each core counted a disjoint packet subset, so
  the element-wise sum of the rows is exactly the single-core sketch.
  The merged estimate reads the columns of the NFs'
  :class:`~repro.datastructs.CountMinSketch`, and the OR of the Bloom
  bitmaps is queried as one :class:`~repro.datastructs.BloomFilter`.

Three extensions on top of the PR 1 data plane:

- **Streaming replay.**  :meth:`RssDispatcher.run` accepts arbitrary
  packet iterables and shards them *as they stream*: packets buffer
  per queue only up to one batch, so peak memory is
  O(``n_cores x batch_size``) instead of O(trace).  Cycle accounting
  is unchanged — batch boundaries and per-core packet order are
  identical to the materialize-then-shard path.
- **Pluggable steering** (:mod:`repro.net.steering`): plain RSS, RSS
  key re-search (``rekey``), or ntuple heavy-hitter pinning
  (``ntuple``) — the latter two cut the Zipf load imbalance while
  leaving per-packet cycle charges untouched.
- **NUMA accounting** (:class:`repro.ebpf.cost_model.NumaTopology`):
  cores on a different node than the NIC pay a per-packet remote-DRAM
  penalty, surfaced as ``numa_cycles`` on :class:`MulticoreResult` and
  folded into aggregate PPS/wall-clock/imbalance (NF cycle totals stay
  bit-identical; the penalty is reported separately).

And the PR 3 resilience layer:

- **Fault injection** (:mod:`repro.faults`): pass a
  :class:`~repro.faults.FaultPlan` and every core gets its own
  seed-decorrelated :class:`~repro.faults.FaultInjector` — packet
  faults, helper errors, and map-update failures fire deterministically
  inside each core's pipeline.
- **Per-core watchdog**: a plan may crash one core (worker death,
  detected immediately) or wedge it (the core stops consuming; the
  watchdog fires after ``watchdog_deadline`` packets pile up dead).
  Either way the victim's traffic is re-steered onto surviving cores
  by a deterministic flow-affine failover hash, and the recovery is
  reported as :class:`CoreFailure` records on the result.  The
  watchdog lives in :class:`repro.net.fleet.Fleet`, the engine under
  this dispatcher.
- **SLO loop** (:mod:`repro.net.slo`): ``slo=SloConfig(...)`` adds
  an epoch hook to the timed loop that re-packs, rejoins and
  autoscales cores; the result then carries the epoch timeline.
- **Full accounting**: every packet offered to the fleet ends in
  exactly one bucket — forwarded, dropped (NF verdicts + watchdog
  losses), or aborted — checked by
  :attr:`MulticoreResult.is_fully_accounted`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Union,
)

from ..core.algorithms.hashing import fast_hash32
from ..datastructs.bloom import BloomFilter
from ..ebpf.cost_model import CPU_HZ, Category, NumaTopology
from ..ebpf.percpu import or_words, sum_counts, sum_matrices
from ..faults import FaultInjector, FaultPlan, WedgeDetection
from .fleet import (
    DEFAULT_WATCHDOG_DEADLINE,
    FAILOVER_SEED,
    AllCoresDeadError,
    CoreFailure,
    Fleet,
)
from .packet import Packet, XdpAction
from .queueing import QueueingConfig, latency_summary_us
from .steering import (
    RSS_HASH_SEED,
    IndirectionTable,
    RssSteering,
    SteeringPolicy,
    make_policy,
)
from .xdp import (
    DEFAULT_BATCH_SIZE,
    FORWARD_ACTIONS,
    NetworkFunction,
    PipelineResult,
    ReplaySession,
    XdpPipeline,
)

if TYPE_CHECKING:
    # repro.net.slo builds on this module; it is imported where used.
    from .slo import EpochStats, SloConfig


def shard_trace(
    trace: Sequence[Packet], n_cores: int, hash_seed: int = RSS_HASH_SEED
) -> List[List[Packet]]:
    """Split a trace into per-core queues by RSS hash (order-preserving)."""
    queues: List[List[Packet]] = [[] for _ in range(n_cores)]
    if n_cores == 1:
        queues[0].extend(trace)
        return queues
    for pkt in trace:
        queues[fast_hash32(pkt.key_int, hash_seed) % n_cores].append(pkt)
    return queues


@dataclass
class MulticoreResult:
    """System-level aggregate of one multi-queue replay.

    ``numa_cycles`` (when a :class:`NumaTopology` was in play) holds
    each core's *extra* cross-node packet-access cycles, kept separate
    from the NF cycle accounting so ``total_cycles`` stays bit-identical
    to a single-node run; wall-clock-derived metrics (aggregate PPS,
    imbalance, lossless capture) include the penalty.

    Under the SLO loop a core may run several sessions (a failed core
    rejoins with a fresh NF); its ``per_core`` entry folds them all in,
    so every ledger — actions, ``duplicated``, ``errors``, ``injected``
    and ring ``overflow`` — counts every session the run built.
    """

    per_core: List[PipelineResult]
    actions: Dict[str, int] = field(default_factory=dict)
    #: Per-core cross-NUMA-node penalty cycles (empty: single node).
    numa_cycles: List[int] = field(default_factory=list)
    #: Packets offered to the fleet (before dup/loss).
    packets_in: int = 0
    #: Packets lost behind failed cores (watchdog accounting).
    lost: int = 0
    #: Watchdog events, in detection order.
    failures: List[CoreFailure] = field(default_factory=list)
    #: Fleet-wide injected-fault counts by kind (empty: no fault plan).
    injected: Dict[str, int] = field(default_factory=dict)
    #: Per-packet sojourn times (queue wait + deferral + service, plus
    #: wire) from the queueing model; empty when queueing is off.
    latencies_ns: List[int] = field(default_factory=list)
    #: Per-core queue-overflow drops (RX ring full; queueing only).
    overflow: List[int] = field(default_factory=list)
    #: SLO control epochs in order (empty: no SLO loop).
    timeline: List["EpochStats"] = field(default_factory=list)
    #: The SLO loop's p99 sojourn target in µs (None: no SLO loop).
    target_p99_us: Optional[float] = None

    @property
    def n_cores(self) -> int:
        return len(self.per_core)

    @property
    def n_packets(self) -> int:
        return sum(r.n_packets for r in self.per_core)

    # -- resilience accounting ------------------------------------------
    #
    # The packet invariant: every offered packet ends in exactly one
    # bucket, ``packets_in + duplicated == forwarded + dropped + aborted``.

    @property
    def dropped(self) -> int:
        """NF drop verdicts, watchdog losses, and RX-ring overflow."""
        return self.nf_dropped + self.lost + self.overflow_drops

    @property
    def is_fully_accounted(self) -> bool:
        return (
            self.packets_in + self.duplicated
            == self.forwarded + self.dropped + self.aborted
        )

    def accounting(self) -> Dict[str, int]:
        """The accounting ledger as a plain dict (chaos report / bench)."""
        return {
            "packets_in": self.packets_in,
            "duplicated": self.duplicated,
            "forwarded": self.forwarded,
            "dropped": self.dropped,
            "aborted": self.aborted,
            "lost": self.lost,
            "overflow": self.overflow_drops,
        }

    @property
    def forwarded(self) -> int:
        return sum(self.actions.get(a, 0) for a in FORWARD_ACTIONS)

    @property
    def overflow_drops(self) -> int:
        """Packets dropped on arrival because a core's RX ring was full."""
        return sum(self.overflow)

    @property
    def nf_dropped(self) -> int:
        return self.actions.get(XdpAction.DROP, 0)

    @property
    def aborted(self) -> int:
        return self.actions.get(XdpAction.ABORTED, 0)

    @property
    def duplicated(self) -> int:
        """Extra packet copies ``pkt_dup`` faults replayed in this run.

        A duplicate an abort shadowed adds no copy; ``injected`` stays
        the injectors' cumulative draw ledger.
        """
        return sum(r.duplicated for r in self.per_core)

    @property
    def errors(self) -> Dict[str, int]:
        """Per-error-kind counts summed across cores."""
        return sum_counts([r.errors for r in self.per_core])

    @property
    def n_errors(self) -> int:
        return sum(self.errors.values())

    # -- latency (queueing model) ---------------------------------------

    def latency_percentile_us(self, p: float) -> float:
        """Sojourn-time percentile in µs (0.0 without the queueing model)."""
        if not self.latencies_ns:
            return 0.0
        from .stats import percentile

        return percentile(self.latencies_ns, p) / 1000.0

    @property
    def p50_latency_us(self) -> float:
        return self.latency_percentile_us(50.0)

    @property
    def p95_latency_us(self) -> float:
        return self.latency_percentile_us(95.0)

    @property
    def p99_latency_us(self) -> float:
        return self.latency_percentile_us(99.0)

    def latency_summary(self) -> Dict[str, float]:
        """The p50/p95/p99 block (see :func:`latency_summary_us`)."""
        return latency_summary_us(self.latencies_ns)

    # -- the SLO loop ---------------------------------------------------

    @property
    def worst_p99_us(self) -> float:
        return max((e.p99_us for e in self.timeline), default=0.0)

    def violating_epochs(self) -> List[int]:
        """Epoch indices whose p99 breached the SLO target."""
        return [
            e.epoch for e in self.timeline
            if not e.meets(self.target_p99_us)
        ]

    def recovery_s(self, settle_epochs: int = 2) -> Optional[float]:
        """Time-to-SLO: see :func:`repro.net.slo.time_to_slo_s`."""
        from .slo import time_to_slo_s

        return time_to_slo_s(self.timeline, self.target_p99_us, settle_epochs)

    @property
    def total_cycles(self) -> int:
        """NF + framework cycles only (NUMA penalties reported apart)."""
        return sum(r.total_cycles for r in self.per_core)

    @property
    def total_numa_cycles(self) -> int:
        return sum(self.numa_cycles)

    @property
    def per_core_cycles(self) -> List[int]:
        return [r.total_cycles for r in self.per_core]

    @property
    def per_core_loaded_cycles(self) -> List[int]:
        """Per-core cycles including any cross-node memory penalty."""
        if not self.numa_cycles:
            return self.per_core_cycles
        return [
            r.total_cycles + extra
            for r, extra in zip(self.per_core, self.numa_cycles)
        ]

    @property
    def busiest_core_cycles(self) -> int:
        loaded = self.per_core_loaded_cycles
        return max(loaded) if loaded else 0

    @property
    def wall_time_s(self) -> float:
        """Replay wall clock: cores run concurrently, the busiest gates."""
        return self.busiest_core_cycles / CPU_HZ

    @property
    def aggregate_pps(self) -> float:
        """System saturation throughput across all cores."""
        busiest = self.busiest_core_cycles
        if busiest == 0:
            return 0.0
        return self.n_packets * CPU_HZ / busiest

    @property
    def aggregate_mpps(self) -> float:
        return self.aggregate_pps / 1e6

    @property
    def imbalance(self) -> float:
        """Load-imbalance factor: busiest-core cycles over mean core cycles.

        1.0 is a perfectly balanced fleet; RSS over Zipf-skewed traffic
        drives it up (the heavy flows pin to single queues), which is
        exactly the aggregate-throughput loss the metric quantifies:
        ``aggregate_pps = ideal_pps / imbalance``.  NUMA penalties count
        toward core load (a remote core is effectively slower).  Under
        the SLO loop the mean is over the cores that served: active in
        some epoch, or processed a packet; a parked core is not idle
        capacity the steering wasted.
        """
        cycles = self.per_core_loaded_cycles
        if self.timeline:
            active = {core for e in self.timeline for core in e.active_cores}
            cycles = [
                c for core, (c, r) in enumerate(zip(cycles, self.per_core))
                if core in active or r.n_packets
            ]
        total = sum(cycles)
        if not cycles or total == 0:
            return 1.0
        return max(cycles) / (total / len(cycles))

    @property
    def by_category(self) -> Dict[Category, int]:
        """Cross-core cycle attribution (per-CPU breakdowns summed)."""
        return sum_counts([r.by_category for r in self.per_core])

    # -- lossless-capture check (à la eBPF-Flow-Collector) -------------

    @property
    def per_core_loaded_pps(self) -> List[float]:
        """Each core's saturation rate, NUMA penalty included."""
        return [
            r.n_packets * CPU_HZ / loaded if loaded and r.n_packets else 0.0
            for r, loaded in zip(self.per_core, self.per_core_loaded_cycles)
        ]

    def lossless_at(self, offered_pps: float) -> bool:
        """Can the fleet absorb ``offered_pps`` without dropping?

        The offered aggregate rate splits across queues in the ratio
        steering actually produced; the capture is lossless iff every
        core's share stays below that core's saturation rate.
        """
        if offered_pps < 0:
            raise ValueError("offered_pps must be non-negative")
        total = self.n_packets
        if total == 0:
            return True
        for r, core_pps in zip(self.per_core, self.per_core_loaded_pps):
            if r.n_packets == 0:
                continue
            share = r.n_packets / total
            if offered_pps * share > core_pps:
                return False
        return True

    @property
    def max_lossless_pps(self) -> float:
        """Highest offered aggregate rate no core saturates at.

        With perfect balance this approaches ``n_cores x`` the
        single-core rate; imbalance caps it at the hottest queue.
        """
        total = self.n_packets
        if total == 0:
            return float("inf")
        rates = [
            core_pps * total / r.n_packets
            for r, core_pps in zip(self.per_core, self.per_core_loaded_pps)
            if r.n_packets
        ]
        return min(rates) if rates else float("inf")

    def speedup_over(self, single_core: PipelineResult) -> float:
        """Aggregate-throughput scaling factor vs a single-core run."""
        if single_core.pps == 0:
            raise ValueError("single-core baseline has no throughput")
        return self.aggregate_pps / single_core.pps


class RssDispatcher:
    """N receive queues, one NF instance + runtime per core.

    ``nf_factory(core_id)`` must build a fresh NF bound to a fresh
    :class:`BpfRuntime` for each core — per-CPU semantics require
    private state.  The dispatcher refuses shared runtimes.

    ``steering`` selects the queue-placement policy: a policy name
    (``"rss"``/``"rekey"``/``"ntuple"``), a ready
    :class:`~repro.net.steering.SteeringPolicy` instance, or ``None``
    for plain RSS (under ``slo``: an
    :class:`~repro.net.steering.IndirectionTable`).  ``numa`` attaches
    a :class:`NumaTopology` whose cross-node packet penalties are folded
    into the result's wall-clock metrics.

    ``faults`` attaches a :class:`~repro.faults.FaultPlan`: each core's
    pipeline gets its own seed-decorrelated injector, and the plan's
    ``crash_core``/``wedge_core`` drive the watchdog — a crashed core is
    detected immediately (worker death) and its remaining traffic
    re-steered to survivors; a wedged core silently eats packets until
    ``watchdog_deadline`` of them are lost, then it too is declared dead
    and re-steered around.  ``detection`` swaps the fixed deadline for a
    :class:`~repro.faults.WedgeDetection` model that draws each core's
    detection latency from a distribution; ``repack_on_failure`` lets a
    table-owning steering policy rebuild its placement over the
    survivors (see :meth:`SteeringPolicy.repack`) instead of hashing
    dead-core traffic onto them.

    ``queueing`` attaches the receive-path latency model
    (:class:`~repro.net.queueing.QueueingConfig`): packets arrive on
    their timestamps into bounded per-core RX rings, coalesce into
    batches, and are serviced on a softirq-deferred single server whose
    busy time is the batch's measured cycle cost — the result then
    carries per-packet sojourn times (p50/p95/p99) and queue-overflow
    drops.  ``queueing=None`` runs the buffered loop of
    :class:`~repro.net.fleet.Fleet`, a ``QueueingConfig`` its timed
    loop; cycle totals and fault schedules are identical between them.

    ``slo`` (a :class:`~repro.net.slo.SloConfig`, needs ``queueing``)
    runs the SLO control loop as an epoch hook on the timed loop:
    ``slo.initial_cores`` serve at the start and the rest are parked
    headroom, failures always re-pack, a failed core rejoins with a
    fresh NF from ``nf_factory`` (its per-CPU state is lost), and the
    autoscaler moves cores between the serving set and the parked pool.
    The result then carries the epoch timeline.
    """

    def __init__(
        self,
        nf_factory: Callable[[int], NetworkFunction],
        n_cores: int,
        steering: Union[str, SteeringPolicy, None] = None,
        numa: Optional[NumaTopology] = None,
        faults: Optional[FaultPlan] = None,
        watchdog_deadline: int = DEFAULT_WATCHDOG_DEADLINE,
        queueing: Optional[QueueingConfig] = None,
        detection: Optional[WedgeDetection] = None,
        repack_on_failure: bool = False,
        slo: Optional["SloConfig"] = None,
    ) -> None:
        if n_cores <= 0:
            raise ValueError("n_cores must be positive")
        if watchdog_deadline <= 0:
            raise ValueError("watchdog_deadline must be positive")
        if faults is not None:
            faults.validate_for_cores(n_cores)
        if slo is not None:
            if queueing is None:
                raise ValueError("slo needs queueing: the SLO loop targets "
                                 "the sojourn latency it measures")
            if max(slo.min_cores, slo.initial_cores or 0) > n_cores:
                raise ValueError(
                    f"slo.min_cores={slo.min_cores} or slo.initial_cores="
                    f"{slo.initial_cores} exceeds n_cores={n_cores}"
                )
        self.n_cores = n_cores
        if steering is None:
            steering = (
                RssSteering(n_cores) if slo is None
                else IndirectionTable(n_cores)
            )
        elif isinstance(steering, str):
            steering = make_policy(steering, n_cores)
        if steering.n_cores != n_cores:
            raise ValueError(
                f"steering policy built for {steering.n_cores} cores, "
                f"dispatcher has {n_cores}"
            )
        self.steering = steering
        self.numa = numa
        self.faults = faults
        self.watchdog_deadline = watchdog_deadline
        self.queueing = queueing
        self.detection = detection
        self.repack_on_failure = repack_on_failure
        self.slo = slo
        self.nf_factory = nf_factory
        self.pipelines: List[XdpPipeline] = [
            self._provision(core) for core in range(n_cores)
        ]
        self.nfs: List[NetworkFunction] = [p.nf for p in self.pipelines]
        self.injectors: List[Optional[FaultInjector]] = [
            p.faults for p in self.pipelines
        ]
        runtimes = {id(nf.rt) for nf in self.nfs}
        if len(runtimes) != n_cores:
            raise ValueError(
                "nf_factory must build one private BpfRuntime per core "
                "(per-CPU eBPF state is never shared across cores)"
            )

    def _provision(self, core: int) -> XdpPipeline:
        """``core``'s pipeline: a fresh NF from the factory and, under
        a fault plan, the core's own injector."""
        faults = self.faults
        injector = faults.injector(core) if faults is not None else None
        return XdpPipeline(self.nf_factory(core), faults=injector)

    def queue_of(self, packet: Packet) -> int:
        return self.steering.queue_of(packet)

    def run(
        self,
        trace: Iterable[Packet],
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> MulticoreResult:
        """Steer ``trace`` across the queues and replay each on its core.

        ``trace`` may be any iterable — including a one-shot generator.
        Packets are steered *as they stream*: with ``queueing=None`` each
        queue buffers at most one batch before its core's
        :class:`ReplaySession` consumes it, so peak memory is
        O(``n_cores x batch_size``) regardless of trace length.  Per-core
        packet order and batch boundaries match the
        materialize-then-shard path exactly, so cycle accounting is
        unchanged.  With ``queueing`` attached the timed loop of
        :class:`~repro.net.fleet.Fleet` runs instead, under ``slo``
        with the SLO loop as its epoch hook.

        If the steering policy wants a traffic sample
        (``sample_size > 0``), exactly that many packets are buffered
        from the head of the stream to fit the policy, then replayed
        first — no packet is dropped or double-counted.

        Each core's session hands a batch to the NF's
        ``process_batch`` when it has one and runs ``process`` per
        packet otherwise; the cycle accounting is the same either way.

        When the fault plan names a ``crash_core``/``wedge_core``, the
        watchdog engages: the victim's traffic is re-steered onto
        surviving cores after detection, and the result carries
        :class:`CoreFailure` records plus full packet accounting.  A
        core the SLO loop rebuilt after a failure counts in its core's
        result, so the ledger covers every session the run built.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        stream = iter(trace)
        policy = self.steering
        if policy.sample_size > 0:
            sample = list(islice(stream, policy.sample_size))
            policy.prepare(sample)
            stream = chain(sample, stream)
        numa_penalty = [
            self.numa.packet_penalty_cycles(core, self.n_cores)
            if self.numa is not None else 0
            for core in range(self.n_cores)
        ]
        fleet = Fleet(
            [ReplaySession(pipeline) for pipeline in self.pipelines],
            policy,
            faults=self.faults,
            detection=self.detection,
            watchdog_deadline=self.watchdog_deadline,
            repack_on_failure=self.repack_on_failure,
            numa_penalty=numa_penalty,
        )
        # Every injector of the run, in build order.
        injectors = list(self.injectors)
        timeline: List["EpochStats"] = []
        if self.queueing is None:
            fleet.run_buffered(stream, batch_size)
        elif self.slo is None:
            fleet.run_timed(stream, self.queueing, batch_size)
        else:
            from .slo import SloLoop

            def rebuild(core: int) -> ReplaySession:
                pipeline = self.pipelines[core] = self._provision(core)
                self.nfs[core] = pipeline.nf
                self.injectors[core] = pipeline.faults
                injectors.append(pipeline.faults)
                return ReplaySession(pipeline)

            loop = SloLoop(fleet, self.slo, rebuild)
            fleet.run_timed(
                stream, self.queueing, batch_size,
                epoch_packets=self.slo.epoch_packets,
                on_epoch=loop.close_epoch,
            )
            timeline = loop.finish()

        per_core = fleet.finish()
        numa_cycles: List[int] = []
        if self.numa is not None:
            numa_cycles = [
                penalty * result.n_packets
                for penalty, result in zip(numa_penalty, per_core)
            ]
        return MulticoreResult(
            per_core=per_core,
            actions=sum_counts([r.actions for r in per_core]),
            numa_cycles=numa_cycles,
            packets_in=fleet.packets_in,
            lost=sum(fleet.lost),
            failures=fleet.failures,
            injected=sum_counts([
                dict(injector.injected)
                for injector in injectors
                if injector is not None
            ]),
            latencies_ns=fleet.latencies,
            overflow=fleet.overflow,
            timeline=timeline,
            target_p99_us=(
                self.slo.target_p99_us if self.slo is not None else None
            ),
        )


# ---------------------------------------------------------------------------
# Per-CPU state aggregation for sharded sketch NFs
# ---------------------------------------------------------------------------

def chain_nf_factory(
    progs: Sequence,
    backend: str = "fused",
    registry_seed: int = 0,
    registry_factory: Optional[Callable[[int], "KfuncRegistry"]] = None,
) -> Callable[[int], NetworkFunction]:
    """Build an ``nf_factory`` for :class:`RssDispatcher` that runs an
    IR NF *chain* on every core.

    Each core gets a fresh private :class:`~repro.ebpf.runtime.BpfRuntime`,
    a fresh kfunc registry (``runnable_registry(registry_seed + core)`` —
    per-CPU sketch rows and steering tables, seed-decorrelated like the
    fault injectors), and a fresh
    :class:`~repro.net.irnf.IrChainNf` with the requested ``backend``
    (``"interp"`` or ``"fused"``).  Verification happens once
    up front; every core shares the same :class:`VerifiedProgram` proofs
    (they are immutable) but nothing mutable.

    ``registry_factory`` overrides the per-core registry constructor
    (``core_id -> KfuncRegistry``) for chains whose kfuncs live outside
    the bundled set — the app registries of :mod:`repro.apps.ir` — and
    is also used for the up-front verification pass (core 0 metadata).
    """
    from ..ebpf.progs import runnable_registry
    from ..ebpf.runtime import BpfRuntime
    from ..ebpf.verifier import VerifiedProgram, Verifier
    from .irnf import IrChainNf

    if registry_factory is None:
        registry_factory = lambda core: runnable_registry(
            seed=registry_seed + core
        )

    verifier: Optional[Verifier] = None
    verified: List[VerifiedProgram] = []
    for p in progs:
        if isinstance(p, VerifiedProgram):
            verified.append(p)
        else:
            if verifier is None:
                verifier = Verifier(registry=registry_factory(0))
            verified.append(verifier.verify(p))

    def factory(core_id: int) -> NetworkFunction:
        rt = BpfRuntime()
        registry = registry_factory(core_id)
        return IrChainNf(
            rt,
            verified,
            registry=registry,
            seed=core_id,
            backend=backend,
        )

    return factory


def merged_countmin_rows(nfs: Sequence) -> List[List[int]]:
    """Sum sharded count-min rows across cores (control-plane fold).

    Raises ``ValueError`` unless every core's sketch shares the first
    one's depth, width and row hash.
    """
    _check_mergeable([nf.sketch for nf in nfs])
    return sum_matrices([nf.rows for nf in nfs])


def merged_countmin_estimate(nfs: Sequence, key: int):
    """Point query against the cross-core merged sketch, for count-min
    and NitroSketch NFs alike.

    Each core saw a disjoint packet subset, so summing rows
    element-wise reconstructs the single-core sketch exactly; the
    estimate is the usual min over the key's merged counters, at the
    columns of the first core's sketch (every core shares its layout).
    """
    rows = merged_countmin_rows(nfs)
    cols = nfs[0].sketch.columns(key)
    return min(row[col] for row, col in zip(rows, cols))


def merged_bloom_words(nfs: Sequence) -> List[int]:
    """OR sharded Bloom bitmaps across cores.

    Raises ``ValueError`` unless every core's filter shares the first
    one's size and hash count.
    """
    _check_mergeable([nf.bloom for nf in nfs])
    return or_words([nf.words for nf in nfs])


def merged_bloom_contains(nfs: Sequence, key: int) -> bool:
    """Membership query against the cross-core merged Bloom filter."""
    words = merged_bloom_words(nfs)
    first = nfs[0].bloom
    merged = BloomFilter(first.n_bits, first.n_hashes)
    merged.words[:] = words
    return key in merged


def _check_mergeable(structs: Sequence) -> None:
    """Each per-core structure must merge with the first one."""
    if not structs:
        raise ValueError("need at least one per-core NF instance")
    for other in structs[1:]:
        structs[0].check_mergeable(other)


#: Public names, including the watchdog's, which live in
#: :mod:`repro.net.fleet` and are re-exported here.
__all__ = [
    "AllCoresDeadError",
    "CoreFailure",
    "DEFAULT_WATCHDOG_DEADLINE",
    "FAILOVER_SEED",
    "MulticoreResult",
    "RSS_HASH_SEED",
    "RssDispatcher",
    "chain_nf_factory",
    "merged_bloom_contains",
    "merged_bloom_words",
    "merged_countmin_estimate",
    "merged_countmin_rows",
    "shard_trace",
]
