"""Deterministic queueing model of the receive path.

Cycle accounting answers "how fast can a core drain packets"; it says
nothing about how long any *single* packet waited.  Production NFs are
judged on tail latency, and on real receive paths the tail is set by
queueing, not by per-packet processing: frames sit in the NIC RX ring
until the next poll, polls coalesce frames into batches (NAPI budget /
interrupt moderation), and servicing is deferred to softirq context —
the bpftrace send/receive measurements of the Linux stack show exactly
this shape, with queue wait and softirq deferral dominating the
per-packet runtime cost.

This module models that pipeline deterministically, on top of the
existing cycle accounting:

- :class:`ArrivalProcess` — a seed-driven arrival-time generator:
  steady state at ``base_pps``, optional :class:`BurstPhase` segments
  (flash crowds / bursts), and deterministic Poisson-style jitter via
  the same counter-indexed hashing the fault injector uses.  Stamp any
  packet stream (e.g. a Zipf :class:`~repro.net.flowgen.FlowGenerator`
  trace) with :meth:`ArrivalProcess.stamp`.
- :class:`QueueingConfig` — the receive-path geometry: bounded RX ring
  (``rx_ring_size``; arrivals beyond it are queue-overflow drops),
  batch-coalescing timeout (``batch_timeout_ns``: a partial batch is
  picked up once its oldest frame has waited that long), and softirq
  dispatch delay (``softirq_delay_ns``).
- :class:`CoreQueue` — one core's discrete-event state: frames arrive
  into the ring, close into batches (full or timed out), and are
  serviced in arrival order by a single server whose busy time is the
  batch's *measured* cycle cost (the existing :class:`CostModel`
  charges) converted to wall time.  :meth:`CoreQueue.complete` returns
  each packet's **sojourn time** — queue wait + deferral + service,
  plus the wire crossings — which is what p50/p95/p99 latency is
  computed from.

The model is attached to :class:`~repro.net.multicore.RssDispatcher`
via ``queueing=QueueingConfig(...)`` and drives the fleet's timed loop
(:meth:`repro.net.fleet.Fleet.run_timed`), which the SLO loop
(``slo=``, :mod:`repro.net.slo`) needs; when it is ``None`` (the
default) the dispatcher runs the buffered loop, and every cycle total
and fault schedule is bit-identical to previous releases (the
determinism contract).  Because cycle accounting is
independent of batch boundaries, total cycles are identical with the
model on or off — queueing adds *information* (latency, overflow),
never different charges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from ..core.algorithms.hashing import fast_hash32
from .packet import Packet
from .stats import percentile

#: Salt decorrelating arrival jitter from every fault-injection stream.
_JITTER_SALT = 0xA221BA17

#: One-way wire + NIC + driver latency (mirrors repro.net.xdp).
_BASE_WIRE_LATENCY_NS = 11_000


def _uniform(seed: int, index: int) -> float:
    """Deterministic uniform draw in (0, 1) for arrival ``index``."""
    h = fast_hash32((index << 7) ^ _JITTER_SALT, seed)
    return (h + 0.5) / 4294967296.0


@dataclass(frozen=True)
class BurstPhase:
    """One constant-rate segment of an arrival process."""

    duration_s: float
    pps: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")
        if self.pps <= 0:
            raise ValueError(f"pps must be positive, got {self.pps}")


class ArrivalProcess:
    """Deterministic bursty arrival-time generator.

    The process plays the ``phases`` in order, then settles at
    ``base_pps`` forever.  With ``jitter=True`` (default) inter-arrival
    gaps are exponentially distributed around the phase rate — a
    Poisson process, the classic open-loop traffic model — drawn from
    counter-indexed hashing so the whole timeline is a pure function of
    ``seed``.  With ``jitter=False`` arrivals are perfectly paced (the
    pktgen regime).
    """

    def __init__(
        self,
        base_pps: float,
        phases: Sequence[BurstPhase] = (),
        jitter: bool = True,
        seed: int = 0,
        start_ns: int = 0,
    ) -> None:
        if base_pps <= 0:
            raise ValueError(f"base_pps must be positive, got {base_pps}")
        if start_ns < 0:
            raise ValueError("start_ns must be non-negative")
        self.base_pps = base_pps
        self.phases: Tuple[BurstPhase, ...] = tuple(phases)
        self.jitter = jitter
        self.seed = seed
        self.start_ns = start_ns

    @classmethod
    def flash_crowd(
        cls,
        base_pps: float,
        peak_pps: float,
        lead_s: float,
        burst_s: float,
        jitter: bool = True,
        seed: int = 0,
    ) -> "ArrivalProcess":
        """Steady traffic, then a flash crowd, then steady again.

        ``lead_s`` of ``base_pps``, ``burst_s`` of ``peak_pps``, and
        ``base_pps`` forever after — the canonical SLO stress shape.
        """
        if peak_pps <= 0:
            raise ValueError(f"peak_pps must be positive, got {peak_pps}")
        return cls(
            base_pps,
            phases=(BurstPhase(lead_s, base_pps), BurstPhase(burst_s, peak_pps)),
            jitter=jitter,
            seed=seed,
        )

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "ArrivalProcess":
        """Parse a CLI burst spec.

        ``"BASE_PPS"`` gives a steady Poisson process;
        ``"BASE:PEAK:LEAD_S:BURST_S"`` gives the flash-crowd shape
        (``lead`` seconds at base, ``burst`` seconds at peak, base
        after).  Raises :class:`ValueError` with the expected grammar
        on anything else.
        """
        parts = spec.split(":")
        try:
            if len(parts) == 1:
                return cls(float(parts[0]), seed=seed)
            if len(parts) == 4:
                base, peak, lead, burst = (float(p) for p in parts)
                return cls.flash_crowd(base, peak, lead, burst, seed=seed)
        except ValueError as exc:
            raise ValueError(f"bad burst spec {spec!r}: {exc}") from None
        raise ValueError(
            f"burst spec must be BASE_PPS or BASE:PEAK:LEAD_S:BURST_S, "
            f"got {spec!r}"
        )

    def rate_at(self, t_ns: int) -> float:
        """The offered rate in effect at absolute time ``t_ns``."""
        elapsed = t_ns - self.start_ns
        for phase in self.phases:
            span = phase.duration_s * 1e9
            if elapsed < span:
                return phase.pps
            elapsed -= span
        return self.base_pps

    def timestamps(self) -> Iterator[int]:
        """Infinite stream of absolute arrival times (non-decreasing)."""
        t = float(self.start_ns)
        i = 0
        while True:
            yield int(t)
            rate = self.rate_at(int(t))
            mean_gap = 1e9 / rate
            if self.jitter:
                gap = -math.log(1.0 - _uniform(self.seed, i)) * mean_gap
            else:
                gap = mean_gap
            t += gap
            i += 1

    def stamp(self, packets: Iterable[Packet]) -> Iterator[Packet]:
        """Re-time a packet stream onto this arrival process."""
        for pkt, ts in zip(packets, self.timestamps()):
            yield pkt.with_timestamp(ts)

    def describe(self) -> Dict[str, object]:
        return {
            "base_pps": self.base_pps,
            "phases": [
                {"duration_s": p.duration_s, "pps": p.pps} for p in self.phases
            ],
            "jitter": self.jitter,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class QueueingConfig:
    """Receive-path geometry for the latency model.

    ``rx_ring_size`` bounds each core's RX ring: a frame arriving into
    a full ring is a **queue-overflow drop** (the NIC's ``rx_dropped``)
    — it never reaches the XDP hook and costs no cycles, but it is
    accounted.  ``batch_timeout_ns`` is the coalescing horizon: a
    partial batch is picked up once its oldest frame has waited that
    long (interrupt moderation / NAPI re-poll).  ``softirq_delay_ns``
    is the fixed deferral between a batch closing and its service
    starting (IRQ -> softirq dispatch).  ``include_wire_latency``
    folds the two wire crossings of the testbed into reported
    latencies, matching :class:`~repro.net.xdp.PipelineResult`.
    """

    rx_ring_size: int = 512
    batch_timeout_ns: int = 20_000
    softirq_delay_ns: int = 2_000
    include_wire_latency: bool = True
    wire_latency_ns: int = _BASE_WIRE_LATENCY_NS

    def __post_init__(self) -> None:
        if self.rx_ring_size <= 0:
            raise ValueError(f"rx_ring_size must be positive, got {self.rx_ring_size}")
        if self.batch_timeout_ns < 0:
            raise ValueError("batch_timeout_ns must be non-negative")
        if self.softirq_delay_ns < 0:
            raise ValueError("softirq_delay_ns must be non-negative")
        if self.wire_latency_ns < 0:
            raise ValueError("wire_latency_ns must be non-negative")

    @property
    def wire_ns(self) -> int:
        """Round-trip wire latency added to every reported sojourn."""
        return 2 * self.wire_latency_ns if self.include_wire_latency else 0

    def describe(self) -> Dict[str, object]:
        return {
            "rx_ring_size": self.rx_ring_size,
            "batch_timeout_ns": self.batch_timeout_ns,
            "softirq_delay_ns": self.softirq_delay_ns,
            "include_wire_latency": self.include_wire_latency,
        }


class CoreQueue:
    """One core's RX ring + batching + single-server service state.

    Mechanics only — the owner decides *when* batches close (on
    fullness, on coalesce timeout, at end of stream) and supplies the
    measured service time; the queue tracks ring occupancy, overflow,
    and the server's busy horizon, and converts (arrival, pickup,
    service) into per-packet sojourn times.

    ``pickup`` is :meth:`pickup_ns` kept current: every method that
    moves the ring's head, its batch-fill arrival or the server's free
    time recomputes it, so a reader pays one attribute load.  With the
    ring empty it is ``math.inf``.
    """

    __slots__ = (
        "cfg",
        "batch_size",
        "pending",
        "arrivals",
        "server_free_ns",
        "pickup",
        "overflowed",
        "served",
        "busy_ns",
    )

    def __init__(self, cfg: QueueingConfig, batch_size: int) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.cfg = cfg
        self.batch_size = batch_size
        self.pending: List[Packet] = []
        self.arrivals: List[int] = []
        self.server_free_ns = 0
        #: When the next batch is picked up (``math.inf``: ring empty).
        self.pickup: float = math.inf
        #: Frames dropped on arrival because the ring was full.
        self.overflowed = 0
        #: Frames whose service has completed.
        self.served = 0
        #: Total service time accumulated (utilization numerator).
        self.busy_ns = 0

    def __len__(self) -> int:
        return len(self.pending)

    def offer(self, pkt: Packet, now_ns: int) -> bool:
        """Admit a frame to the ring; False == queue-overflow drop."""
        pending = self.pending
        if len(pending) >= self.cfg.rx_ring_size:
            self.overflowed += 1
            return False
        pending.append(pkt)
        arrivals = self.arrivals
        arrivals.append(now_ns)
        # Only the first frame (a new coalesce deadline) and the one
        # that fills a batch move the pickup time.
        n = len(arrivals)
        if n == 1 or n == self.batch_size:
            self.pickup = self.pickup_ns()
        return True

    def pickup_ns(self) -> int:
        """When the next batch is picked up (needs pending frames).

        ``max(batch ready, server free)``: ready is the fill instant
        for a full batch, the coalesce deadline for a partial one.
        """
        arrivals = self.arrivals
        if len(arrivals) >= self.batch_size:
            ready = arrivals[self.batch_size - 1]
        else:
            ready = arrivals[0] + self.cfg.batch_timeout_ns
        return max(ready, self.server_free_ns)

    def take(self) -> Tuple[List[Packet], List[int]]:
        """Pop up to one batch (packets and their arrival times)."""
        n = self.batch_size
        batch, self.pending = self.pending[:n], self.pending[n:]
        times, self.arrivals = self.arrivals[:n], self.arrivals[n:]
        self.pickup = self.pickup_ns() if self.pending else math.inf
        return batch, times

    def drain(self) -> Tuple[List[Packet], List[int]]:
        """Pop everything (dead-core teardown)."""
        batch, self.pending = self.pending, []
        times, self.arrivals = self.arrivals, []
        self.pickup = math.inf
        return batch, times

    def complete(
        self, arrivals: Sequence[int], ready_ns: int, service_ns: int
    ) -> List[int]:
        """Service one closed batch; returns per-packet sojourn times.

        The batch was picked up at ``ready_ns`` (last arrival for a
        full batch, the coalesce deadline for a timed-out one); service
        starts once the server is free and the softirq has dispatched,
        runs for ``service_ns`` (the measured cycle cost of the batch),
        and completions spread uniformly across the batch.  Sojourn =
        completion − arrival + ``cfg.wire_ns``: queue wait + deferral +
        service, plus the wire crossings when the config includes them.
        """
        m = len(arrivals)
        if m == 0:
            return []
        if service_ns < 0:
            raise ValueError("service_ns must be non-negative")
        start = max(self.server_free_ns, ready_ns) + self.cfg.softirq_delay_ns
        self.server_free_ns = start + service_ns
        self.busy_ns += service_ns
        self.served += m
        if self.pending:
            self.pickup = self.pickup_ns()
        base = start + self.cfg.wire_ns
        return [
            base + service_ns * i // m - arrived
            for i, arrived in enumerate(arrivals, 1)
        ]


def latency_summary_us(latencies_ns: Sequence[int]) -> Dict[str, float]:
    """The p50/p95/p99 block every latency-aware report carries."""
    if not latencies_ns:
        return {
            "n": 0, "p50_us": 0.0, "p95_us": 0.0, "p99_us": 0.0,
            "mean_us": 0.0, "max_us": 0.0,
        }
    return {
        "n": len(latencies_ns),
        "p50_us": round(percentile(latencies_ns, 50.0) / 1000.0, 3),
        "p95_us": round(percentile(latencies_ns, 95.0) / 1000.0, 3),
        "p99_us": round(percentile(latencies_ns, 99.0) / 1000.0, 3),
        "mean_us": round(sum(latencies_ns) / len(latencies_ns) / 1000.0, 3),
        "max_us": round(max(latencies_ns) / 1000.0, 3),
    }


__all__ = [
    "ArrivalProcess",
    "BurstPhase",
    "CoreQueue",
    "QueueingConfig",
    "latency_summary_us",
]
