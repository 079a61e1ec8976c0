"""The fleet engine under :class:`~repro.net.multicore.RssDispatcher`
and :class:`~repro.net.slo.SloController` (docs/MULTICORE.md).

One :class:`Fleet` owns the per-core sessions and the watchdog; two
arrival loops drive it.  :meth:`Fleet.run_buffered` (``queueing=None``,
also the healthy fleet) counts a wedged core's loss per flushed batch,
:meth:`Fleet.run_timed` (a :class:`~repro.net.queueing.QueueingConfig`)
per arrival.  That is why they stay two loops: merging them would move
when the watchdog fires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from ..core.algorithms.hashing import fast_hash32
from ..ebpf.cost_model import CPU_HZ
from ..faults import FaultPlan, WedgeDetection
from .packet import Packet
from .queueing import CoreQueue, QueueingConfig
from .steering import SteeringPolicy
from .xdp import PipelineResult, ReplaySession

if TYPE_CHECKING:
    from ..nfs.degrade import ColdStartWarmup

#: Hash seed of the failover re-steer (distinct from every RSS seed so
#: a dead core's flows spread evenly over the survivors).
FAILOVER_SEED = 0xFA110FF

#: Packets that may pile up on a wedged core before the watchdog
#: declares it dead (the "deadline exceeded" detector).
DEFAULT_WATCHDOG_DEADLINE = 1024


class AllCoresDeadError(RuntimeError):
    """Every core failed — there is nowhere left to re-steer traffic."""


@dataclass
class CoreFailure:
    """One watchdog event: a core died and its traffic was re-steered.

    ``processed`` is how many packets the core completed before the
    fault; ``lost`` counts packets that sat in its queue and were never
    processed (wedge only — a crash is detected immediately, so nothing
    queues behind it); ``resteered`` counts packets redirected to
    surviving cores after detection.  ``repacked`` is True when the
    steering policy rebuilt its placement table over the survivors
    (fault-aware re-pack) instead of relying on the failover hash — in
    that case ``resteered`` stays 0, because no packet ever reaches
    the dead queue to be redirected.
    """

    core: int
    kind: str                     # "crash" | "wedge"
    processed: int = 0
    lost: int = 0
    resteered: int = 0
    repacked: bool = False

    def describe(self) -> Dict[str, object]:
        return {
            "core": self.core,
            "kind": self.kind,
            "processed": self.processed,
            "lost": self.lost,
            "resteered": self.resteered,
            "repacked": self.repacked,
        }


class PacketAccounting:
    """The packet-accounting invariant, stated once for every result.

    A result supplies ``packets_in``, ``duplicated``, ``forwarded``,
    ``nf_dropped``, ``aborted``, ``lost`` and ``overflow_drops``; every
    offered packet must end in exactly one bucket.
    """

    @property
    def dropped(self) -> int:
        """NF drop verdicts, watchdog losses, and RX-ring overflow."""
        return self.nf_dropped + self.lost + self.overflow_drops

    @property
    def is_fully_accounted(self) -> bool:
        """``packets_in + duplicated == forwarded + dropped + aborted``."""
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


class Fleet:
    """Per-core replay sessions under one watchdog.

    The first ``n_serving`` cores take traffic at the start (default:
    all); the others are parked.  A crash point of ``faults`` kills its
    core once the core was fed that many packets, seen at once; a
    wedge point stops it consuming, and it is declared dead once its
    lost pile reaches its deadline (from ``detection``, else
    ``watchdog_deadline``).  A dead core's traffic re-steers through
    ``policy.repack`` when ``repack_on_failure`` is set and the policy
    owns a table, else through the flow-affine failover hash.
    ``on_failure`` sees each :class:`CoreFailure` record as it is made.

    ``numa_penalty`` (cycles per packet, per core) and ``warmup`` add
    service time on the timed loop without touching NF cycle totals.
    """

    def __init__(
        self,
        sessions: List[ReplaySession],
        policy: SteeringPolicy,
        faults: Optional[FaultPlan] = None,
        detection: Optional[WedgeDetection] = None,
        watchdog_deadline: int = DEFAULT_WATCHDOG_DEADLINE,
        repack_on_failure: bool = False,
        n_serving: Optional[int] = None,
        numa_penalty: Optional[Sequence[int]] = None,
        warmup: Optional["ColdStartWarmup"] = None,
        on_failure: Optional[Callable[[CoreFailure], None]] = None,
    ) -> None:
        n = len(sessions)
        self.sessions = sessions
        self.policy = policy
        self.repack_on_failure = repack_on_failure
        self.on_failure = on_failure
        self.warmup = warmup
        self.numa_penalty = list(numa_penalty or [0] * n)
        self.serving = [
            n_serving is None or core < n_serving for core in range(n)
        ]
        self.deadlines = [
            detection.deadline_for(core) if detection is not None
            else watchdog_deadline
            for core in range(n)
        ]
        #: core -> (packets fed before the fault, "crash" | "wedge").
        self.fault_at: Dict[int, Tuple[int, str]] = {}
        if faults is not None:
            for core in range(n):
                for kind, point in (("crash", faults.crash_point(core)),
                                    ("wedge", faults.wedge_point(core))):
                    if point is not None:
                        self.fault_at[core] = (point, kind)
        self.wedged = [False] * n
        self.fed = [0] * n
        self.lost = [0] * n
        #: Packets served since the core last joined cold (warmup only).
        self.since_join = [0] * n
        self.failures: List[CoreFailure] = []
        self.failure_of: Dict[int, CoreFailure] = {}
        self.packets_in = 0
        #: RX rings of the timed loop (empty on the buffered loop).
        self.queues: List[CoreQueue] = []
        self.latencies: List[int] = []
        #: Results and ring overflow of sessions torn down by :meth:`retire`.
        self.retired: List[PipelineResult] = []
        self.overflow_retired = 0
        #: Arrival clock of the timed loop.
        self.now = 0

    # -- the serving set -------------------------------------------------

    def serving_cores(self) -> List[int]:
        return [core for core, up in enumerate(self.serving) if up]

    def failover(self, pkt: Packet, core: int) -> int:
        """Re-steer ``pkt``, which was steered to the non-serving ``core``.

        Wedged-but-undetected cores count as survivors: the control
        plane cannot route around a fault it has not detected yet.
        """
        record = self.failure_of.get(core)
        if record is not None:
            record.resteered += 1
        survivors = self.serving_cores()
        if not survivors:
            raise AllCoresDeadError(
                "every core has failed; traffic has nowhere to go"
            )
        return survivors[fast_hash32(pkt.key_int, FAILOVER_SEED) % len(survivors)]

    def declare_dead(self, core: int, kind: str) -> None:
        self.serving[core] = False
        self.wedged[core] = False
        record = CoreFailure(
            core=core, kind=kind,
            processed=self.fed[core], lost=self.lost[core],
        )
        self.failures.append(record)
        self.failure_of[core] = record
        survivors = self.serving_cores()
        # A hash-only policy's repack returns False: it has no table.
        if (
            self.repack_on_failure
            and survivors
            and self.policy.repack(survivors) is not False
        ):
            record.repacked = True
        if self.on_failure is not None:
            self.on_failure(record)

    def park(self, core: int) -> List[Packet]:
        """Take ``core`` out of service; returns its stranded ring frames."""
        self.serving[core] = False
        self.policy.repack(self.serving_cores())
        return self.queues[core].drain()[0]

    def join(self, core: int) -> None:
        """Put ``core`` (back) into service."""
        self.serving[core] = True
        self.policy.repack(self.serving_cores())

    def retire(self, core: int, session: ReplaySession) -> None:
        """Replace a dead core's session and ring: its per-CPU state is lost."""
        self.retired.append(self.sessions[core].finish())
        self.sessions[core] = session
        ring = self.queues[core]
        self.overflow_retired += ring.overflowed
        self.queues[core] = CoreQueue(ring.cfg, ring.batch_size)

    # -- the watchdog ----------------------------------------------------

    def lose(self, core: int, n: int) -> None:
        """``n`` packets pile up on wedged ``core``; past its deadline
        the watchdog fires."""
        self.lost[core] += n
        if self.lost[core] >= self.deadlines[core]:
            self.declare_dead(core, "wedge")

    def serve(
        self,
        core: int,
        batch: List[Packet],
        feed: Callable[[List[Packet]], object],
        resteer: Callable[[List[Packet]], object],
    ) -> None:
        """``feed`` ``batch`` to ``core``, cut at the core's fault point.

        Up to the point the batch is fed; the frames behind it share
        the fault.  A crash is observed at once, so nothing is lost: the
        tail, then the younger frames still in the dead ring, re-steer
        onto the survivors in arrival order.  A wedged core stops
        consuming: the tail and its ring count toward the detection
        deadline.
        """
        fault = self.fault_at.get(core)
        if fault is None or self.fed[core] + len(batch) <= fault[0]:
            feed(batch)
            return
        point, kind = self.fault_at.pop(core)
        cut = point - self.fed[core]
        head, tail = batch[:cut], batch[cut:]
        if head:
            feed(head)
        stranded = self.queues[core].drain()[0] if self.queues else []
        if kind == "crash":
            self.declare_dead(core, "crash")
            resteer(tail + stranded)
        else:
            self.wedged[core] = True
            self.lose(core, len(tail) + len(stranded))

    def teardown(self) -> None:
        """A wedge that never hit its deadline is still dead at end of
        stream: teardown notices and accounts for it."""
        for core, wedged in enumerate(self.wedged):
            if wedged and self.serving[core]:
                self.declare_dead(core, "wedge")

    # -- the tally -------------------------------------------------------

    def finish(self) -> List[PipelineResult]:
        """Close every live session; per-core results in core order."""
        return [session.finish() for session in self.sessions]

    @property
    def overflow_drops(self) -> int:
        return self.overflow_retired + sum(q.overflowed for q in self.queues)

    # -- the arrival loops -----------------------------------------------

    def run_buffered(self, stream: Iterable[Packet], batch_size: int) -> None:
        """Steer ``stream`` into per-core buffers of ``batch_size``.

        A full buffer is fed to its core at once, so peak memory is
        O(``n_cores x batch_size``) and per-core batch boundaries match
        the materialize-then-shard path.  Packets are hashed a chunk at
        a time (:meth:`~repro.net.steering.SteeringPolicy.chunks`) and
        placed one by one, so a repack mid-chunk steers the next one.
        A wedged core's buffer counts as lost when it flushes, a whole
        batch at a time.
        """
        sessions, serving, wedged, fed = (
            self.sessions, self.serving, self.wedged, self.fed
        )
        policy = self.policy
        place = policy.place
        failover = self.failover
        buffers: List[List[Packet]] = [[] for _ in sessions]

        def feed(core: int, pkts: List[Packet]) -> None:
            sessions[core].feed(pkts)
            fed[core] += len(pkts)

        def flush(core: int, buf: List[Packet]) -> None:
            if wedged[core]:
                self.lose(core, len(buf))
            else:
                self.serve(core, buf, lambda pkts: feed(core, pkts), route)

        def route(pkts: Iterable[Packet]) -> int:
            """Steer ``pkts`` into the buffers; returns how many."""
            routed = 0
            for chunk, keys, hashes in policy.chunks(pkts):
                routed += len(chunk)
                for pkt, key, h in zip(chunk, keys, hashes):
                    core = place(key, h)
                    if not serving[core]:
                        core = failover(pkt, core)
                    buf = buffers[core]
                    buf.append(pkt)
                    if len(buf) == batch_size:
                        buffers[core] = []
                        flush(core, buf)
            return routed

        self.packets_in += route(stream)
        # Drain: re-steered packets may refill other buffers, so keep
        # flushing until every buffer is empty.
        pending = True
        while pending:
            pending = False
            for core, buf in enumerate(buffers):
                if buf:
                    buffers[core] = []
                    flush(core, buf)
                    pending = True
        self.teardown()

    def run_timed(
        self,
        stream: Iterable[Packet],
        cfg: QueueingConfig,
        batch_size: int,
        epoch_packets: int = 0,
        on_epoch: Optional[Callable[[int], Iterable[Packet]]] = None,
    ) -> None:
        """The latency-faithful loop, driven by packet timestamps.

        Frames arrive into bounded per-core RX rings (a full ring drops
        them as overflow) and are picked up in batches at ``max(batch
        ready, server free)``.  A batch's service time is its measured
        cycle delta plus the NUMA and cold-start terms, so NF cycle
        totals match the buffered loop; queueing adds sojourn times.

        Every ``epoch_packets`` arrivals (0: never) the due batches are
        served and ``on_epoch(now)`` runs; it returns frames it took
        out of service, which re-arrive at ``now``.  Arrivals are
        hashed a chunk at a time and placed one by one, as in
        :meth:`run_buffered`; re-arrivals are placed by ``queue_of``.
        """
        n = len(self.sessions)
        self.queues = queues = [CoreQueue(cfg, batch_size) for _ in range(n)]
        sessions, serving, wedged, fed = (
            self.sessions, self.serving, self.wedged, self.fed
        )
        fault_at = self.fault_at
        policy = self.policy
        place = policy.place
        queue_of = policy.queue_of
        failover = self.failover
        latencies = self.latencies
        wire_ns = cfg.wire_ns
        numa_penalty = self.numa_penalty
        warmup = self.warmup
        since_join = self.since_join
        now = 0
        next_pickup = math.inf

        def enqueue(pkt: Packet, core: int, at_ns: int) -> None:
            nonlocal next_pickup
            if not serving[core]:
                core = failover(pkt, core)
            if wedged[core]:
                # The core stopped consuming: the frame will never be
                # serviced.  It piles up toward the detection deadline.
                self.lose(core, 1)
                return
            q = queues[core]
            if q.offer(pkt, at_ns):
                next_pickup = min(next_pickup, q.pickup_ns())

        def service(
            core: int, batch: List[Packet], arrivals: List[int], pickup_ns: int
        ) -> None:
            cycles = sessions[core].pipeline.rt.cycles
            before = cycles.total
            sessions[core].feed(batch)
            m = len(batch)
            fed[core] += m
            service_cyc = cycles.total - before + numa_penalty[core] * m
            if warmup is not None:
                # Midpoint of the batch approximates the decaying
                # per-packet cold penalty without per-packet exp calls.
                service_cyc += m * warmup.penalty_at(since_join[core] + m // 2)
                since_join[core] += m
            service_ns = service_cyc * 1_000_000_000 // CPU_HZ
            for soj in queues[core].complete(arrivals, pickup_ns, service_ns):
                latencies.append(soj + wire_ns)

        def arrive(pkts: Iterable[Packet], at_ns: int) -> None:
            for pkt in pkts:
                enqueue(pkt, queue_of(pkt), at_ns)

        def flush_due(horizon_ns: float) -> None:
            """Serve every batch whose pickup time is <= the horizon.

            ``next_pickup`` bounds every serving core's pickup from
            below, so callers skip the scan for a horizon before it.
            Only ``enqueue`` fills a ring, and a core joins with an
            empty one (:meth:`park` drains, :meth:`retire` replaces).
            """
            nonlocal next_pickup
            while True:
                best = None
                next_pickup = math.inf
                for c in range(n):
                    q = queues[c]
                    if not q.pending or not serving[c] or wedged[c]:
                        continue
                    pickup = q.pickup_ns()
                    if pickup > horizon_ns:
                        next_pickup = min(next_pickup, pickup)
                    elif best is None or (pickup, c) < best:
                        best = (pickup, c)
                if best is None:
                    return
                pickup, core = best
                batch, arrivals = queues[core].take()
                if core not in fault_at:  # no cut to make: the common case
                    service(core, batch, arrivals, pickup)
                    continue
                # Everything behind a crash re-arrives at detection time.
                self.serve(
                    core, batch,
                    lambda pkts: service(
                        core, pkts, arrivals[:len(pkts)], pickup),
                    lambda pkts: arrive(pkts, max(now, pickup)),
                )

        packets_in = 0
        # packets_in starts at 1, so an epoch length of 0 never closes.
        next_epoch = epoch_packets
        for chunk, keys, hashes in policy.chunks(stream):
            for pkt, key, h in zip(chunk, keys, hashes):
                packets_in += 1
                ts = pkt.timestamp_ns
                if ts > now:
                    now = ts
                if now >= next_pickup:
                    flush_due(now)
                enqueue(pkt, place(key, h), now)
                if packets_in == next_epoch:
                    next_epoch += epoch_packets
                    if now >= next_pickup:
                        flush_due(now)
                    arrive(on_epoch(now), now)
        flush_due(math.inf)
        self.packets_in += packets_in
        self.now = now
        self.teardown()
