"""XDP pipeline simulator: attach an NF, replay a trace, measure.

Mirrors the paper's methodology (§6.1): a single receive queue bound to
one core, the NF attached at the XDP hook in native mode.  For
throughput runs the NF drops packets after processing and we report
packets-per-second derived from cycles-per-packet; for latency runs the
NF forwards packets back and end-to-end latency is wire base plus
processing time.

One replay loop exists.  :meth:`XdpPipeline.run` opens a
:class:`ReplaySession` and feeds it the trace in batches, as the
kernel's NAPI poll hands XDP its frames; the multi-queue fleet feeds
one session per core.  Framework costs (XDP dispatch + parse) are
charged in bulk per batch.  An NF that implements ``process_batch``
gets the whole batch in one call; otherwise, or when latency is
measured, its ``process`` runs per packet with per-packet clock
advance (required for time-driven NFs).  Cycle accounting is the same
either way (tested); only the Python-side wall-clock cost differs.

Replay consumes **arbitrary iterables**: a generator source
(:meth:`FlowGenerator.iter_trace`, :func:`repro.net.trace.iter_trace`)
replays with O(batch) peak memory — the full trace is never
materialized.

**Fault containment** mirrors the eBPF runtime's safety guarantee (an
XDP program cannot crash the kernel): an NF exception on one packet
becomes an ``XDP_ABORTED`` verdict plus an entry in the pipeline's
per-CPU error counter — the simulated ``xdp_exception`` tracepoint —
and the replay continues.  Attach a
:class:`~repro.faults.FaultInjector` to inject packet-level faults
(drop / corruption / truncation / duplication), helper error returns,
and map-update failures on a deterministic, seed-driven schedule; every
batch granularity sees the identical fault sequence.

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
from ..faults import FaultInjector, PKT_CORRUPT, PKT_DROP, PKT_TRUNCATE
from .packet import Packet, XdpAction
from .stats import percentile

#: One-way wire + NIC + driver latency on the back-to-back testbed, ns.
BASE_WIRE_LATENCY_NS = 11_000

#: Default batch granularity for :meth:`XdpPipeline.run` —
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
    action -> count mapping for the batch.  The replay core uses it
    whenever it exists and no latency is measured.
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
    pipeline screens each batch with it (per-packet drop / parse faults
    / duplication / helper errors) and also installs it on the NF's
    runtime so map updates fail on the same schedule.  An NF exception
    becomes an ``XDP_ABORTED`` verdict plus an error-counter entry:
    the replay survives, as a real XDP program would.
    """

    def __init__(
        self,
        nf: NetworkFunction,
        *,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.nf = nf
        self.rt = nf.rt
        self.faults = faults
        if faults is not None:
            # Same injector drives map-update failures inside the NF.
            self.rt.faults = faults

    def run(
        self,
        trace: Iterable[Packet],
        measure_latency: bool = False,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> PipelineResult:
        """Replay every packet in ``trace`` and aggregate metrics.

        Opens a :class:`ReplaySession` and feeds it ``trace`` in
        batches of ``batch_size``; ``measure_latency`` records each
        packet's end-to-end latency.  ``trace`` may be any iterable: a
        generator is drained one batch at a time, so peak memory is
        O(``batch_size``), never O(trace).
        """
        session = ReplaySession(self, measure_latency)
        for batch in iter_batches(trace, batch_size):
            session.feed(batch)
        return session.finish()

    def _replay_batch(
        self,
        batch: Sequence[Packet],
        actions: Counter,
        errors: Counter,
        latencies: Optional[List[int]] = None,
    ) -> int:
        """Charge and process one batch (the one replay core).

        Framework costs (XDP dispatch + parse) are charged in bulk per
        batch.  If the NF implements ``process_batch`` and no latency
        is measured (``latencies is None``), the whole batch is handed
        over in one call and the clock advances once to the batch's
        latest arrival; otherwise ``process`` runs per packet, the
        clock advancing to each packet's arrival, and each packet's
        end-to-end latency (two wire crossings plus its dispatch,
        parse and NF cycles) is appended to ``latencies``.

        With a fault injector attached, the batch is pre-screened by
        one :meth:`~repro.faults.FaultInjector.screen` call — exactly
        the per-packet ``packet_fault``/``helper_fault`` draws:
        dropped packets are verdicts without charges, parse/helper
        faults abort after dispatch + parse (their latencies are booked
        first in the batch), duplicates replay twice, and a batch
        nothing afflicts goes to the NF untouched.  The clock still
        reaches a faulted packet's arrival: on the per-packet path
        before the next clean packet, as replaying in trace order
        would, and by the end of the batch otherwise.  An exception from
        ``process_batch`` aborts the *whole* batch (its charges and
        partial state mutations stand, as a crashed program's would);
        the per-packet loop aborts only the faulting packet.

        Returns the number of packets accounted (== verdicts added):
        ``len(batch)`` plus one per duplicate copy replayed.
        """
        rt = self.rt
        costs = rt.costs
        dispatch_cost = costs.xdp_dispatch
        parse_cost = costs.packet_parse
        faults = self.faults
        accounted = 0
        late = 0
        hits = faults.screen(len(batch)) if faults is not None else None
        if hits:
            clean: List[Packet] = []
            n_dropped = 0
            n_parse = 0
            n_helper = 0
            done = 0
            # floors[i]: the latest faulted arrival ahead of clean[i].
            floors: Dict[int, int] = {}
            for offset, pf, helper in hits:
                clean += batch[done:offset]
                done = offset + 1
                pkt = batch[offset]
                if pf == PKT_DROP:
                    n_dropped += 1
                elif pf in _PARSE_FAULTS:
                    n_parse += 1
                elif helper:
                    n_helper += 1
                else:  # a duplicate: the frame replays twice
                    clean += (pkt, pkt)
                    continue
                if pkt.timestamp_ns > late:
                    late = pkt.timestamp_ns
                floors[len(clean)] = late
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
                rt.charge(dispatch_cost * bailed, Category.FRAMEWORK)
                rt.charge(parse_cost * bailed, Category.PARSE)
                if latencies is not None:
                    bail_ns = _latency_ns(dispatch_cost + parse_cost)
                    latencies += [bail_ns] * bailed
            accounted += n_dropped + bailed
            batch = clean
            # Only a floor later than its frame's own arrival moves the
            # clock, and only the per-packet path reads it per frame.
            floors = {
                i: ts for i, ts in floors.items()
                if i < len(clean) and ts > clean[i].timestamp_ns
            }
            if floors and (
                latencies is not None
                or getattr(self.nf, "process_batch", None) is None
            ):
                batch = _ClockFloors(clean, floors, rt)
        m = len(batch)
        if m:
            rt.charge(dispatch_cost * m, Category.FRAMEWORK)
            rt.charge(parse_cost * m, Category.PARSE)
            process_batch = (
                None if latencies is not None
                else getattr(self.nf, "process_batch", None)
            )
            if process_batch is not None:
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
                    verdicts = {XdpAction.ABORTED: m}
                    errors[type(exc).__name__] += 1
                for action, count in verdicts.items():
                    if action not in _VALID_ACTIONS:
                        raise ValueError(
                            f"NF returned invalid XDP action {action!r}"
                        )
                    actions[action] += count
            else:
                nf_process = self.nf.process
                cycles = rt.cycles
                framework = dispatch_cost + parse_cost
                for pkt in batch:
                    ts = pkt.timestamp_ns
                    if ts > rt.now_ns:
                        rt.advance_time_ns(ts - rt.now_ns)
                    before = cycles.total
                    try:
                        action = nf_process(pkt)
                    except Exception as exc:
                        # Fault containment: one bad packet aborts, the
                        # replay continues (the eBPF safety guarantee).
                        action = XdpAction.ABORTED
                        errors[type(exc).__name__] += 1
                    if action not in _VALID_ACTIONS:
                        raise ValueError(
                            f"NF returned invalid XDP action {action!r}"
                        )
                    actions[action] += 1
                    if latencies is not None:
                        latencies.append(
                            _latency_ns(framework + cycles.total - before)
                        )
        if late > rt.now_ns:
            rt.advance_time_ns(late - rt.now_ns)
        return accounted + m


class _ClockFloors(list):
    """The clean frames of a faulted batch for the per-packet loop.

    Taking frame ``i`` first moves the clock to ``floors[i]``, the
    latest faulted arrival ahead of it, so an out-of-order trace sees
    the clock that replaying its frames one by one would give.
    """

    def __init__(self, frames: List[Packet], floors: Dict[int, int], rt):
        super().__init__(frames)
        self.floors = floors
        self.rt = rt

    def __iter__(self) -> Iterator[Packet]:
        rt = self.rt
        floors = self.floors
        for i, pkt in enumerate(list.__iter__(self)):
            floor = floors.get(i, 0)
            if floor > rt.now_ns:
                rt.advance_time_ns(floor - rt.now_ns)
            yield pkt


def _latency_ns(cycles: int) -> int:
    """Sender -> NF -> back to sender: two wire crossings plus the
    packet's processing time."""
    return 2 * BASE_WIRE_LATENCY_NS + int(cycles * 1e9 / CPU_HZ)


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

    The one replay loop: :meth:`XdpPipeline.run` feeds a session its
    trace in batches, and the multi-queue fleet hands each core's
    session that core's packets as they arrive, so a session
    accumulates a replay without ever seeing the whole trace.  Every
    batch goes through the same core, and the final result is the
    cycle delta since the session opened.  ``measure_latency`` keeps
    the NF on its per-packet ``process`` and records each packet's
    end-to-end latency.
    """

    def __init__(
        self, pipeline: XdpPipeline, measure_latency: bool = False
    ) -> None:
        self.pipeline = pipeline
        self._actions: Counter = Counter()
        self._errors: Counter = Counter()
        self._latencies: Optional[List[int]] = [] if measure_latency else None
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
            batch, self._actions, self._errors, self._latencies
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
            latencies_ns=self._latencies or [],
            errors=dict(self._errors),
            duplicated=self._n - self._offered,
        )
