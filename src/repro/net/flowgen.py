"""Deterministic flow and trace generation (the pktgen stand-in).

The paper replays randomly generated 64-byte packets with pktgen-DPDK;
here a :class:`FlowGenerator` synthesizes a flow population and emits
packet traces under several flow-size distributions:

- ``uniform``: each packet drawn uniformly over the flows,
- ``zipf``: Zipf(s) flow popularity — heavy-hitter-skewed traffic, the
  regime sketches and top-k NFs are built for,
- ``round_robin``: cycles the flows (worst case for caches).
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Iterator, List, Optional, Sequence

from .packet import MIN_FRAME_BYTES, PROTO_TCP, PROTO_UDP, Packet

DISTRIBUTIONS = ("uniform", "zipf", "round_robin")


def make_flows(n_flows: int, seed: int = 1) -> List[Packet]:
    """A population of ``n_flows`` distinct 5-tuple templates."""
    if n_flows <= 0:
        raise ValueError("n_flows must be positive")
    rng = random.Random(seed)
    flows = []
    seen = set()
    while len(flows) < n_flows:
        pkt = Packet(
            src_ip=rng.getrandbits(32),
            dst_ip=rng.getrandbits(32),
            src_port=rng.randrange(1024, 65536),
            dst_port=rng.choice((53, 80, 443, 8080, 4789)),
            proto=rng.choice((PROTO_TCP, PROTO_UDP)),
            size=MIN_FRAME_BYTES,
        )
        if pkt.five_tuple in seen:
            continue
        seen.add(pkt.five_tuple)
        flows.append(pkt)
    return flows


class FlowGenerator:
    """Generates packet traces over a fixed flow population."""

    def __init__(
        self,
        n_flows: int = 1024,
        distribution: str = "uniform",
        zipf_s: float = 1.1,
        seed: int = 1,
        flows: Optional[Sequence[Packet]] = None,
    ) -> None:
        """``flows`` replaces the synthesized population (``n_flows`` is
        then ignored); the trace RNG depends only on ``seed`` either way.
        """
        if distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"unknown distribution {distribution!r}; choose from {DISTRIBUTIONS}"
            )
        if distribution == "zipf" and zipf_s <= 0:
            raise ValueError("zipf_s must be positive")
        self.distribution = distribution
        self.zipf_s = zipf_s
        self._rng = random.Random(seed ^ 0x5EED)
        if flows is None:
            self.flows = make_flows(n_flows, seed)
        elif not flows:
            raise ValueError("flows must be non-empty")
        else:
            self.flows = list(flows)
        n_flows = len(self.flows)
        self._cdf: Optional[List[float]] = None
        if distribution == "zipf":
            weights = [1.0 / (rank ** zipf_s) for rank in range(1, n_flows + 1)]
            total = sum(weights)
            acc = 0.0
            cdf = []
            for w in weights:
                acc += w / total
                cdf.append(acc)
            cdf[-1] = 1.0
            self._cdf = cdf
        self._rr = itertools.cycle(range(n_flows))

    def _pick(self) -> Packet:
        n = len(self.flows)
        if self.distribution == "uniform":
            return self.flows[self._rng.randrange(n)]
        if self.distribution == "zipf":
            u = self._rng.random()
            return self.flows[bisect.bisect_left(self._cdf, u)]
        return self.flows[next(self._rr)]

    def packets(
        self, n_packets: int, inter_arrival_ns: int = 0, start_ns: int = 0
    ) -> Iterator[Packet]:
        """Yield ``n_packets`` timestamped packets."""
        if n_packets < 0:
            raise ValueError("n_packets must be non-negative")
        ts = start_ns
        for _ in range(n_packets):
            yield self._pick().with_timestamp(ts)
            ts += inter_arrival_ns

    def iter_trace(
        self, n_packets: int, inter_arrival_ns: int = 0, start_ns: int = 0
    ) -> Iterator[Packet]:
        """Streaming trace emission: a generator over ``n_packets``.

        The zero-materialization spelling of :meth:`trace` — packets
        are synthesized one at a time, so a billion-packet replay
        holds O(1) packets resident.  Feeds directly into
        :meth:`XdpPipeline.run`/:meth:`run_batch` and
        :meth:`RssDispatcher.run` (all accept arbitrary iterables) and
        :func:`repro.net.trace.write_trace_iter`.  Deterministic: for
        a given generator state it yields exactly the packets
        :meth:`trace` would materialize.
        """
        return self.packets(n_packets, inter_arrival_ns, start_ns)

    def trace(self, n_packets: int, inter_arrival_ns: int = 0) -> List[Packet]:
        """Materialized trace (replayable, deterministic)."""
        return list(self.packets(n_packets, inter_arrival_ns))

    def iter_trace_bursty(self, n_packets: int, arrivals) -> Iterator[Packet]:
        """Streaming trace re-timed onto a bursty arrival process.

        ``arrivals`` is a :class:`repro.net.queueing.ArrivalProcess`
        (steady rate, bursts, flash crowds — with deterministic Poisson
        jitter); flow choice stays this generator's distribution while
        arrival *times* come from the process.  The spelling the
        latency-faithful replay path (``RssDispatcher(queueing=...)``)
        expects its traces in.
        """
        return arrivals.stamp(self.packets(n_packets))


def rate_to_inter_arrival_ns(pps: float) -> int:
    """Inter-arrival gap for a target packet rate."""
    if pps <= 0:
        raise ValueError("pps must be positive")
    return int(1e9 / pps)
