"""XDP pipeline simulator: attach an NF, replay a trace, measure.

Mirrors the paper's methodology (§6.1): a single receive queue bound to
one core, the NF attached at the XDP hook in native mode.  For
throughput runs the NF drops packets after processing and we report
packets-per-second derived from cycles-per-packet; for latency runs the
NF forwards packets back and end-to-end latency is wire base plus
processing time.

Two replay paths exist:

- :meth:`XdpPipeline.run` — per-packet, supports latency measurement
  and per-packet clock advance (required for time-driven NFs);
- :meth:`XdpPipeline.run_batch` — batched: framework costs are charged
  in bulk per batch and NFs that implement ``process_batch`` handle a
  whole batch in one call.  Cycle-accounting is identical to ``run``
  by construction (tested); only the Python-side wall-clock cost drops.

Both paths consume **arbitrary iterables**: a generator source
(:meth:`FlowGenerator.iter_trace`, :func:`repro.net.trace.iter_trace`)
replays with O(batch) peak memory — the full trace is never
materialized.  :class:`ReplaySession` exposes the same accounting
incrementally (``feed`` batches as they arrive, ``finish`` for the
result), which is how the streaming multi-queue dispatcher drives one
pipeline per core off a single shared packet stream.

**Fault containment** mirrors the eBPF runtime's safety guarantee (an
XDP program cannot crash the kernel): an NF exception on one packet
becomes an ``XDP_ABORTED`` verdict plus an entry in the pipeline's
per-CPU error counter — the simulated ``xdp_exception`` tracepoint —
and the replay continues.  Attach a
:class:`~repro.faults.FaultInjector` to inject packet-level faults
(drop / corruption / truncation / duplication), helper error returns,
and map-update failures on a deterministic, seed-driven schedule; both
replay paths see the identical fault sequence.  Pass
``on_error="raise"`` to restore fail-fast propagation for debugging.

Multi-queue (RSS) replay lives in :mod:`repro.net.multicore`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Protocol, Sequence

from ..ebpf.cost_model import (
    CPU_HZ,
    Category,
    processing_time_ns,
    throughput_pps,
)
from ..ebpf.runtime import BpfRuntime
from ..faults import FaultInjector, PKT_CORRUPT, PKT_DROP, PKT_DUP, PKT_TRUNCATE
from .packet import Packet, XdpAction
from .stats import percentile

#: One-way wire + NIC + driver latency on the back-to-back testbed, ns.
BASE_WIRE_LATENCY_NS = 11_000

#: Default batch granularity for :meth:`XdpPipeline.run_batch` —
#: mirrors the NAPI poll budget (the kernel hands XDP up to 64 frames
#: per poll; we default larger since the simulator has no IRQ cadence).
DEFAULT_BATCH_SIZE = 256

_VALID_ACTIONS = frozenset(XdpAction.ALL)

#: Injected faults that make the packet unparseable (-> XDP_ABORTED).
_PARSE_FAULTS = frozenset((PKT_CORRUPT, PKT_TRUNCATE))

#: Error-counter keys for injected parse / helper faults.
PARSE_ERROR = "parse_error"
HELPER_ERROR = "helper_error"

#: XDP verdicts that forward the packet onward.
FORWARD_ACTIONS = (XdpAction.PASS, XdpAction.TX, XdpAction.REDIRECT)


class NetworkFunction(Protocol):
    """What the pipeline needs from an attached NF.

    ``process_batch`` is optional: NFs whose per-packet cycle charges do
    not depend on the simulated clock may implement it to process a
    whole batch in one call, charging the *identical* cycles the
    equivalent ``process`` calls would have charged.  It returns an
    action -> count mapping for the batch.
    """

    rt: BpfRuntime

    def process(self, packet: Packet) -> str:
        """Handle one packet; returns an :class:`XdpAction` verdict."""
        ...


@dataclass
class PipelineResult:
    """Aggregate measurements from one trace replay.

    ``errors`` is the core's per-CPU error counter — one bucket per
    exception type (or injected-fault tag) that aborted a packet,
    mirroring the kernel's ``xdp_exception`` tracepoint statistics.
    Every replayed packet lands in exactly one verdict, so
    ``n_packets == forwarded + dropped + aborted`` always holds.
    ``duplicated`` counts the extra copies ``pkt_dup`` faults replayed
    in this replay, so ``n_packets`` is the packets offered plus it.
    """

    n_packets: int
    total_cycles: int
    actions: Dict[str, int]
    by_category: Dict[Category, int]
    latencies_ns: List[int] = field(default_factory=list)
    errors: Dict[str, int] = field(default_factory=dict)
    duplicated: int = 0

    @property
    def forwarded(self) -> int:
        """Packets forwarded onward (PASS + TX + REDIRECT)."""
        return sum(self.actions.get(a, 0) for a in FORWARD_ACTIONS)

    @property
    def dropped(self) -> int:
        return self.actions.get(XdpAction.DROP, 0)

    @property
    def aborted(self) -> int:
        """Packets that hit a program error (the aborted tracepoint)."""
        return self.actions.get(XdpAction.ABORTED, 0)

    @property
    def n_errors(self) -> int:
        return sum(self.errors.values())

    @property
    def cycles_per_packet(self) -> float:
        if self.n_packets == 0:
            return 0.0
        return self.total_cycles / self.n_packets

    @property
    def pps(self) -> float:
        """Single-core saturation throughput."""
        if self.n_packets == 0:
            return 0.0
        return throughput_pps(self.cycles_per_packet)

    @property
    def mpps(self) -> float:
        return self.pps / 1e6

    @property
    def proc_time_ns(self) -> float:
        """Mean per-packet processing time (Fig. 5's metric)."""
        if self.n_packets == 0:
            return 0.0
        return processing_time_ns(self.cycles_per_packet)

    @property
    def avg_latency_us(self) -> float:
        """Mean end-to-end latency (Fig. 4's metric)."""
        if not self.latencies_ns:
            return 0.0
        return sum(self.latencies_ns) / len(self.latencies_ns) / 1000.0

    def latency_percentile_us(self, p: float) -> float:
        """End-to-end latency percentile (``p`` in [0, 100])."""
        if not self.latencies_ns:
            return 0.0
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

    def behavior_share(self, *categories: Category) -> float:
        """Share of cycles attributed to the given behaviors (Fig. 1)."""
        if self.total_cycles == 0:
            return 0.0
        return sum(self.by_category.get(c, 0) for c in categories) / self.total_cycles

    def latency_at_load_us(self, offered_pps: float) -> float:
        """End-to-end latency at an offered rate (extension to Fig. 4).

        The paper measures latency only at 1 kpps, where queueing is
        negligible; this extends the model with M/D/1 waiting time
        (Poisson arrivals, deterministic per-packet service):
        ``W = rho / (2 * (1 - rho)) * service``.  Returns ``inf`` at or
        beyond saturation.
        """
        if offered_pps <= 0:
            raise ValueError("offered_pps must be positive")
        service_s = self.cycles_per_packet / CPU_HZ
        rho = offered_pps * service_s
        if rho >= 1.0:
            return float("inf")
        wait_s = rho / (2.0 * (1.0 - rho)) * service_s
        return (2 * BASE_WIRE_LATENCY_NS / 1e9 + service_s + wait_s) * 1e6


class XdpPipeline:
    """Replay traces through one NF on one simulated core.

    ``faults`` attaches a :class:`~repro.faults.FaultInjector`: the
    pipeline consults it per packet (drop / parse faults / duplication
    / helper errors) and also installs it on the NF's runtime so map
    updates fail on the same schedule.  ``on_error`` selects what an NF
    exception does: ``"abort"`` (default) converts it to an
    ``XDP_ABORTED`` verdict plus an error-counter entry — the replay
    survives, as a real XDP program would — while ``"raise"``
    propagates it (fail-fast debugging).
    """

    def __init__(
        self,
        nf: NetworkFunction,
        *,
        faults: Optional[FaultInjector] = None,
        on_error: str = "abort",
    ) -> None:
        if on_error not in ("abort", "raise"):
            raise ValueError("on_error must be 'abort' or 'raise'")
        self.nf = nf
        self.rt = nf.rt
        self.faults = faults
        self.on_error = on_error
        if faults is not None:
            # Same injector drives map-update failures inside the NF.
            self.rt.faults = faults

    def run(
        self,
        trace: Iterable[Packet],
        measure_latency: bool = False,
        advance_clock: bool = True,
    ) -> PipelineResult:
        """Process every packet in ``trace`` and aggregate metrics."""
        rt = self.rt
        costs = rt.costs
        # Hoist everything the per-packet loop touches: attribute and
        # dict lookups dominate the Python-side cost at trace scale.
        charge = rt.charge
        cycles = rt.cycles
        nf_process = self.nf.process
        dispatch_cost = costs.xdp_dispatch
        parse_cost = costs.packet_parse
        framework_cat = Category.FRAMEWORK
        parse_cat = Category.PARSE
        faults = self.faults
        contain = self.on_error == "abort"
        actions: Counter = Counter()
        errors: Counter = Counter()
        latencies: List[int] = []
        start = cycles.checkpoint()
        n = 0
        duplicated = 0
        for pkt in trace:
            ts = pkt.timestamp_ns
            if advance_clock and ts > rt.now_ns:
                rt.advance_time_ns(ts - rt.now_ns)
            copies = 1
            if faults is not None:
                pf = faults.packet_fault()
                helper = faults.helper_fault()
                if pf == PKT_DROP:
                    # Lost before the XDP hook (NIC/ring drop): no
                    # cycles are spent, but the packet is accounted.
                    actions[XdpAction.DROP] += 1
                    n += 1
                    continue
                if pf in _PARSE_FAULTS or helper:
                    # Unparseable frame or failed helper: the program
                    # bails out -> XDP_ABORTED after dispatch + parse.
                    before = cycles.total
                    charge(dispatch_cost, framework_cat)
                    charge(parse_cost, parse_cat)
                    actions[XdpAction.ABORTED] += 1
                    errors[
                        PARSE_ERROR if pf in _PARSE_FAULTS else HELPER_ERROR
                    ] += 1
                    if measure_latency:
                        proc_ns = int((cycles.total - before) * 1e9 / CPU_HZ)
                        latencies.append(2 * BASE_WIRE_LATENCY_NS + proc_ns)
                    n += 1
                    continue
                if pf == PKT_DUP:
                    copies = 2
                    duplicated += 1
            while copies:
                copies -= 1
                before = cycles.total
                charge(dispatch_cost, framework_cat)
                charge(parse_cost, parse_cat)
                try:
                    action = nf_process(pkt)
                except Exception as exc:
                    if not contain:
                        raise
                    # Fault containment: one bad packet aborts, the
                    # replay continues (the eBPF safety guarantee).
                    action = XdpAction.ABORTED
                    errors[type(exc).__name__] += 1
                if action not in _VALID_ACTIONS:
                    raise ValueError(
                        f"NF returned invalid XDP action {action!r}"
                    )
                actions[action] += 1
                if measure_latency:
                    proc_ns = int((cycles.total - before) * 1e9 / CPU_HZ)
                    # Sender -> NF -> back to sender: two wire crossings.
                    latencies.append(2 * BASE_WIRE_LATENCY_NS + proc_ns)
                n += 1
        delta = cycles.delta_since(start)
        return PipelineResult(
            n_packets=n,
            total_cycles=delta.total,
            actions=dict(actions),
            by_category=delta.by_category,
            latencies_ns=latencies,
            errors=dict(errors),
            duplicated=duplicated,
        )

    def _replay_batch(
        self,
        batch: Sequence[Packet],
        actions: Counter,
        errors: Counter,
        advance_clock: bool,
        use_batch: bool = True,
    ) -> int:
        """Charge and process one batch (the shared batched-replay core).

        Framework costs (XDP dispatch + parse) are charged in bulk —
        identical in total and category to the per-packet charges
        :meth:`run` makes.  If ``use_batch`` and the NF implements
        ``process_batch``, the whole batch is handed over in one call;
        otherwise ``process`` runs per packet with per-packet clock
        advance, exactly as :meth:`run`.

        With a fault injector attached, the batch is pre-screened by
        one :meth:`~repro.faults.FaultInjector.screen` call — the same
        per-packet fault draws :meth:`run` makes, so both paths see the
        identical schedule: dropped packets are verdicts without
        charges, parse/helper faults abort after dispatch + parse,
        duplicates replay twice, and a batch nothing afflicts goes to
        the NF untouched.  An exception from ``process_batch`` aborts
        the *whole* batch (its charges and partial state mutations
        stand, as a crashed program's would); the per-packet fallback
        aborts only the faulting packet.

        Returns the number of packets accounted (== verdicts added):
        ``len(batch)`` plus one per duplicate copy replayed.
        """
        rt = self.rt
        faults = self.faults
        contain = self.on_error == "abort"
        accounted = 0
        hits = faults.screen(len(batch)) if faults is not None else None
        if hits:
            clean: List[Packet] = []
            n_dropped = 0
            n_parse = 0
            n_helper = 0
            done = 0
            for offset, pf, helper in hits:
                clean += batch[done:offset]
                done = offset + 1
                if pf == PKT_DROP:
                    n_dropped += 1
                elif pf in _PARSE_FAULTS:
                    n_parse += 1
                elif helper:
                    n_helper += 1
                else:  # a duplicate: the frame replays twice
                    pkt = batch[offset]
                    clean += (pkt, pkt)
            clean += batch[done:]
            bailed = n_parse + n_helper
            if n_dropped:
                actions[XdpAction.DROP] += n_dropped
            if bailed:
                actions[XdpAction.ABORTED] += bailed
                if n_parse:
                    errors[PARSE_ERROR] += n_parse
                if n_helper:
                    errors[HELPER_ERROR] += n_helper
                costs = rt.costs
                rt.charge(costs.xdp_dispatch * bailed, Category.FRAMEWORK)
                rt.charge(costs.packet_parse * bailed, Category.PARSE)
            accounted += n_dropped + bailed
            batch = clean
            if not batch:
                return accounted
        m = len(batch)
        costs = rt.costs
        rt.charge(costs.xdp_dispatch * m, Category.FRAMEWORK)
        rt.charge(costs.packet_parse * m, Category.PARSE)
        process_batch = (
            getattr(self.nf, "process_batch", None) if use_batch else None
        )
        if process_batch is not None:
            if advance_clock:
                now = rt.now_ns
                ts = now
                for pkt in batch:
                    if pkt.timestamp_ns > ts:
                        ts = pkt.timestamp_ns
                if ts > now:
                    rt.advance_time_ns(ts - now)
            try:
                verdicts = process_batch(batch)
            except Exception as exc:
                if not contain:
                    raise
                actions[XdpAction.ABORTED] += m
                errors[type(exc).__name__] += 1
                return accounted + m
            for action, count in verdicts.items():
                if action not in _VALID_ACTIONS:
                    raise ValueError(
                        f"NF returned invalid XDP action {action!r}"
                    )
                actions[action] += count
        else:
            nf_process = self.nf.process
            for pkt in batch:
                ts = pkt.timestamp_ns
                if advance_clock and ts > rt.now_ns:
                    rt.advance_time_ns(ts - rt.now_ns)
                try:
                    action = nf_process(pkt)
                except Exception as exc:
                    if not contain:
                        raise
                    action = XdpAction.ABORTED
                    errors[type(exc).__name__] += 1
                if action not in _VALID_ACTIONS:
                    raise ValueError(
                        f"NF returned invalid XDP action {action!r}"
                    )
                actions[action] += 1
        return accounted + m

    def run_batch(
        self,
        trace: Iterable[Packet],
        batch_size: int = DEFAULT_BATCH_SIZE,
        advance_clock: bool = True,
    ) -> PipelineResult:
        """Batched replay: same cycle accounting as :meth:`run`, faster.

        Framework costs (XDP dispatch + parse) are charged once per
        batch in bulk.  If the NF implements ``process_batch``, the
        whole batch is handed over in one call and the simulated clock
        advances at batch granularity (such NFs must not read the clock
        per packet — the sketch/membership/LB NFs qualify); otherwise
        the NF's ``process`` runs per packet with per-packet clock
        advance, exactly as :meth:`run`.

        ``trace`` may be any iterable.  Generator sources are consumed
        one batch at a time, so peak memory is O(``batch_size``), never
        O(trace) — the streaming replay path.

        Latency measurement needs per-packet cycle deltas; use
        :meth:`run` for latency experiments.
        """
        cycles = self.rt.cycles
        actions: Counter = Counter()
        errors: Counter = Counter()
        start = cycles.checkpoint()
        n = 0
        offered = 0
        for batch in iter_batches(trace, batch_size):
            n += self._replay_batch(batch, actions, errors, advance_clock)
            offered += len(batch)
        delta = cycles.delta_since(start)
        return PipelineResult(
            n_packets=n,
            total_cycles=delta.total,
            actions=dict(actions),
            by_category=delta.by_category,
            latencies_ns=[],
            errors=dict(errors),
            duplicated=n - offered,
        )


def iter_batches(
    trace: Iterable[Packet], batch_size: int
) -> Iterator[Sequence[Packet]]:
    """Yield ``trace`` in batches of up to ``batch_size`` packets.

    Sequences are sliced in place (no copy of the whole trace); any
    other iterable is drained incrementally, holding at most one batch
    at a time — the primitive behind every streaming replay path.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if isinstance(trace, (list, tuple)):
        for i in range(0, len(trace), batch_size):
            yield trace[i : i + batch_size]
        return
    it = iter(trace)
    while True:
        batch = list(islice(it, batch_size))
        if not batch:
            return
        yield batch


class ReplaySession:
    """Incremental replay: ``feed`` packet batches, ``finish`` -> result.

    The streaming multi-queue dispatcher shards one shared packet
    stream across cores and hands each core its packets as they
    arrive; a session accumulates that core's replay without ever
    seeing the whole trace.  Cycle accounting is identical to
    :meth:`XdpPipeline.run_batch` (and, with ``use_batch=False``, to
    :meth:`XdpPipeline.run`) by construction: both call the same
    batch-replay core, and the final result is the cycle delta since
    the session opened.
    """

    def __init__(
        self,
        pipeline: XdpPipeline,
        advance_clock: bool = True,
        use_batch: bool = True,
    ) -> None:
        self.pipeline = pipeline
        self.advance_clock = advance_clock
        self.use_batch = use_batch
        self._actions: Counter = Counter()
        self._errors: Counter = Counter()
        self._n = 0
        self._offered = 0
        self._start = pipeline.rt.cycles.checkpoint()
        self._finished = False

    @property
    def n_packets(self) -> int:
        return self._n

    def feed(self, batch: Sequence[Packet]) -> None:
        """Replay one batch of packets through the core's pipeline."""
        if self._finished:
            raise RuntimeError("session already finished")
        if not batch:
            return
        self._n += self.pipeline._replay_batch(
            batch, self._actions, self._errors, self.advance_clock,
            self.use_batch,
        )
        self._offered += len(batch)

    def finish(self) -> PipelineResult:
        """Close the session and aggregate everything fed so far."""
        self._finished = True
        delta = self.pipeline.rt.cycles.delta_since(self._start)
        return PipelineResult(
            n_packets=self._n,
            total_cycles=delta.total,
            actions=dict(self._actions),
            by_category=delta.by_category,
            latencies_ns=[],
            errors=dict(self._errors),
            duplicated=self._n - self._offered,
        )


def warm_then_measure(
    pipeline: XdpPipeline,
    warmup: Iterable[Packet],
    trace: Iterable[Packet],
    measure_latency: bool = False,
) -> PipelineResult:
    """Replay a warmup trace (tables filled, caches primed), then measure."""
    pipeline.run(warmup)
    return pipeline.run(trace, measure_latency=measure_latency)
