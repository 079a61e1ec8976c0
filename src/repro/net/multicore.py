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
  watchdog lives in :class:`repro.net.fleet.Fleet`, the engine this
  dispatcher and :class:`repro.net.slo.SloController` share.
- **Full accounting**: every packet offered to the fleet ends in
  exactly one bucket — forwarded, dropped (NF verdicts + watchdog
  losses), or aborted — checked by
  :attr:`MulticoreResult.is_fully_accounted`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from ..core.algorithms.hashing import fast_hash32
from ..ebpf.cost_model import CPU_HZ, Category, NumaTopology
from ..ebpf.percpu import or_words, sum_counts, sum_matrices
from ..faults import FaultInjector, FaultPlan, WedgeDetection
from .fleet import (  # noqa: F401  (re-exported: the watchdog's public names)
    DEFAULT_WATCHDOG_DEADLINE,
    FAILOVER_SEED,
    AllCoresDeadError,
    CoreFailure,
    Fleet,
    PacketAccounting,
)
from .packet import Packet, XdpAction
from .queueing import QueueingConfig, latency_summary_us
from .steering import RSS_HASH_SEED, RssSteering, SteeringPolicy, make_policy
from .xdp import (
    DEFAULT_BATCH_SIZE,
    FORWARD_ACTIONS,
    NetworkFunction,
    PipelineResult,
    ReplaySession,
    XdpPipeline,
)

def rss_queue(packet: Packet, n_cores: int, hash_seed: int = RSS_HASH_SEED) -> int:
    """The receive queue (== core) RSS steers ``packet`` to."""
    if n_cores <= 0:
        raise ValueError("n_cores must be positive")
    return fast_hash32(packet.key_int, hash_seed) % n_cores


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
class MulticoreResult(PacketAccounting):
    """System-level aggregate of one multi-queue replay.

    ``numa_cycles`` (when a :class:`NumaTopology` was in play) holds
    each core's *extra* cross-node packet-access cycles, kept separate
    from the NF cycle accounting so ``total_cycles`` stays bit-identical
    to a single-node run; wall-clock-derived metrics (aggregate PPS,
    imbalance, lossless capture) include the penalty.
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

    @property
    def n_cores(self) -> int:
        return len(self.per_core)

    @property
    def n_packets(self) -> int:
        return sum(r.n_packets for r in self.per_core)

    # -- resilience accounting ------------------------------------------

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
    def per_core_cycles_per_packet(self) -> List[float]:
        return [r.cycles_per_packet for r in self.per_core]

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
        toward core load (a remote core is effectively slower).
        """
        cycles = self.per_core_loaded_cycles
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
    for plain RSS with ``hash_seed``.  ``numa`` attaches a
    :class:`NumaTopology` whose cross-node packet penalties are folded
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
    """

    def __init__(
        self,
        nf_factory: Callable[[int], NetworkFunction],
        n_cores: int,
        hash_seed: int = RSS_HASH_SEED,
        charge_framework: bool = True,
        steering: Union[str, SteeringPolicy, None] = None,
        numa: Optional[NumaTopology] = None,
        faults: Optional[FaultPlan] = None,
        watchdog_deadline: int = DEFAULT_WATCHDOG_DEADLINE,
        queueing: Optional[QueueingConfig] = None,
        detection: Optional[WedgeDetection] = None,
        repack_on_failure: bool = False,
    ) -> None:
        if n_cores <= 0:
            raise ValueError("n_cores must be positive")
        if watchdog_deadline <= 0:
            raise ValueError("watchdog_deadline must be positive")
        if faults is not None:
            faults.validate_for_cores(n_cores)
        self.n_cores = n_cores
        self.hash_seed = hash_seed
        if steering is None:
            steering = RssSteering(n_cores, hash_seed=hash_seed)
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
        self.nfs: List[NetworkFunction] = [
            nf_factory(core) for core in range(n_cores)
        ]
        runtimes = {id(nf.rt) for nf in self.nfs}
        if len(runtimes) != n_cores:
            raise ValueError(
                "nf_factory must build one private BpfRuntime per core "
                "(per-CPU eBPF state is never shared across cores)"
            )
        self.injectors: List[Optional[FaultInjector]] = [
            faults.injector(core) if faults is not None else None
            for core in range(n_cores)
        ]
        self.pipelines: List[XdpPipeline] = [
            XdpPipeline(
                nf, charge_framework=charge_framework, faults=injector
            )
            for nf, injector in zip(self.nfs, self.injectors)
        ]

    def queue_of(self, packet: Packet) -> int:
        return self.steering.queue_of(packet)

    def run(
        self,
        trace: Iterable[Packet],
        batch_size: int = DEFAULT_BATCH_SIZE,
        use_batch: bool = True,
        advance_clock: bool = True,
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
        :class:`~repro.net.fleet.Fleet` runs instead.

        If the steering policy wants a traffic sample
        (``sample_size > 0``), exactly that many packets are buffered
        from the head of the stream to fit the policy, then replayed
        first — no packet is dropped or double-counted.

        ``use_batch`` selects the batched replay path (cycle-identical
        to per-packet, just faster); disable it for NFs that need
        per-packet clock advance.

        When the fault plan names a ``crash_core``/``wedge_core``, the
        watchdog engages: the victim's traffic is re-steered onto
        surviving cores after detection, and the result carries
        :class:`CoreFailure` records plus full packet accounting.
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
            [
                ReplaySession(
                    pipeline, advance_clock=advance_clock, use_batch=use_batch
                )
                for pipeline in self.pipelines
            ],
            policy,
            faults=self.faults,
            detection=self.detection,
            watchdog_deadline=self.watchdog_deadline,
            repack_on_failure=self.repack_on_failure,
            numa_penalty=numa_penalty,
        )
        if self.queueing is None:
            fleet.run_buffered(stream, batch_size)
        else:
            fleet.run_timed(stream, self.queueing, batch_size)

        per_core = fleet.finish()
        numa_cycles: List[int] = []
        if self.numa is not None:
            numa_cycles = [
                penalty * result.n_packets
                for penalty, result in zip(numa_penalty, per_core)
            ]
        injected: Dict[str, int] = {}
        if self.faults is not None:
            injected = dict(sum_counts([
                dict(injector.injected)
                for injector in self.injectors
                if injector is not None
            ]))
        return MulticoreResult(
            per_core=per_core,
            actions=sum_counts([r.actions for r in per_core]),
            numa_cycles=numa_cycles,
            packets_in=fleet.packets_in,
            lost=sum(fleet.lost),
            failures=fleet.failures,
            injected=injected,
            latencies_ns=fleet.latencies,
            overflow=[q.overflowed for q in fleet.queues],
        )


# ---------------------------------------------------------------------------
# Per-CPU state aggregation for sharded sketch NFs
# ---------------------------------------------------------------------------

def chain_nf_factory(
    progs: Sequence,
    backend: str = "fused",
    registry_seed: int = 0,
    elide_checks: bool = True,
    nf_seed: int = 0,
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
            elide_checks=elide_checks,
            seed=nf_seed + core_id,
            backend=backend,
        )

    return factory


def merged_countmin_rows(nfs: Sequence) -> List[List[int]]:
    """Sum sharded count-min rows across cores (control-plane fold)."""
    _check_same_shape(nfs)
    return sum_matrices([nf.rows for nf in nfs])


def merged_countmin_estimate(nfs: Sequence, key: int) -> int:
    """Point query against the cross-core merged sketch.

    Each core saw a disjoint packet subset, so summing rows
    element-wise reconstructs the single-core sketch exactly; the
    estimate is the usual min over the key's merged counters.
    """
    rows = merged_countmin_rows(nfs)
    cols = nfs[0].columns(key)
    return min(rows[r][cols[r]] for r in range(len(cols)))


def merged_nitrosketch_estimate(nfs: Sequence, key: int) -> float:
    """Cross-core NitroSketch estimate (rows summed, then min)."""
    _check_same_shape(nfs)
    rows = sum_matrices([nf.rows for nf in nfs])
    cols = nfs[0].columns(key)
    return min(rows[r][cols[r]] for r in range(len(cols)))


def merged_bloom_words(nfs: Sequence) -> List[int]:
    """OR sharded Bloom bitmaps across cores."""
    return or_words([nf.words for nf in nfs])


def merged_bloom_contains(nfs: Sequence, key: int) -> bool:
    """Membership query against the cross-core merged Bloom filter."""
    words = merged_bloom_words(nfs)
    n_bits = len(words) * 64
    for seed in range(nfs[0].n_hashes):
        bit = fast_hash32(key, seed) % n_bits
        if not words[bit // 64] >> (bit % 64) & 1:
            return False
    return True


def _check_same_shape(nfs: Sequence) -> None:
    if not nfs:
        raise ValueError("need at least one per-core NF instance")
    depth = getattr(nfs[0], "depth", None)
    width = getattr(nfs[0], "width", None)
    for nf in nfs[1:]:
        if getattr(nf, "depth", None) != depth or getattr(nf, "width", None) != width:
            raise ValueError("per-core sketches must share one geometry")
