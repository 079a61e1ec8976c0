"""Latency-faithful receive path: arrivals, rings, sojourn accounting."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.ebpf.cost_model import ExecMode
from repro.ebpf.runtime import BpfRuntime
from repro.net.flowgen import FlowGenerator
from repro.net.multicore import RssDispatcher
from repro.net.queueing import (
    ArrivalProcess,
    BurstPhase,
    CoreQueue,
    QueueingConfig,
    latency_summary_us,
)
from repro.nfs import CountMinNF


def countmin_factory(core):
    return CountMinNF(BpfRuntime(mode=ExecMode.ENETSTL, seed=core), depth=4)


def bursty_trace(n, pps, seed=5, n_flows=512):
    fg = FlowGenerator(n_flows=n_flows, seed=seed, distribution="zipf")
    arrivals = ArrivalProcess(pps, seed=seed)
    return list(fg.iter_trace_bursty(n, arrivals))


class TestArrivalProcess:
    def test_same_seed_same_timeline(self):
        a = ArrivalProcess(1e6, seed=7).timestamps()
        b = ArrivalProcess(1e6, seed=7).timestamps()
        assert [next(a) for _ in range(500)] == [next(b) for _ in range(500)]

    def test_different_seed_diverges(self):
        a = ArrivalProcess(1e6, seed=7).timestamps()
        b = ArrivalProcess(1e6, seed=8).timestamps()
        assert [next(a) for _ in range(100)] != [next(b) for _ in range(100)]

    def test_timestamps_are_non_decreasing(self):
        ts = ArrivalProcess(2e6, seed=3).timestamps()
        vals = [next(ts) for _ in range(2000)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_mean_rate_is_honoured(self):
        # 1 Mpps => ~1000 ns mean gap; Poisson jitter averages out.
        ts = ArrivalProcess(1e6, seed=1).timestamps()
        vals = [next(ts) for _ in range(20_000)]
        mean_gap = (vals[-1] - vals[0]) / (len(vals) - 1)
        assert mean_gap == pytest.approx(1000.0, rel=0.05)

    def test_no_jitter_is_perfectly_paced(self):
        ts = ArrivalProcess(1e6, jitter=False).timestamps()
        vals = [next(ts) for _ in range(10)]
        gaps = {b - a for a, b in zip(vals, vals[1:])}
        assert gaps == {1000}

    def test_flash_crowd_rate_shape(self):
        proc = ArrivalProcess.flash_crowd(1e6, 1e7, lead_s=0.001, burst_s=0.002)
        assert proc.rate_at(0) == 1e6
        assert proc.rate_at(1_500_000) == 1e7  # inside the burst window
        assert proc.rate_at(5_000_000) == 1e6  # settled back to base

    def test_stamp_retimes_packets(self):
        fg = FlowGenerator(n_flows=64, seed=2)
        pkts = list(ArrivalProcess(1e6, seed=2).stamp(fg.packets(100)))
        assert len(pkts) == 100
        assert pkts[0].timestamp_ns == 0
        assert pkts[-1].timestamp_ns > pkts[0].timestamp_ns

    @pytest.mark.parametrize(
        "kwargs",
        [dict(base_pps=0), dict(base_pps=-1.0), dict(base_pps=1e6, start_ns=-1)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ArrivalProcess(**kwargs)

    def test_burst_phase_validation(self):
        with pytest.raises(ValueError):
            BurstPhase(duration_s=0, pps=1e6)
        with pytest.raises(ValueError):
            BurstPhase(duration_s=1.0, pps=0)

    def test_from_spec_steady(self):
        proc = ArrivalProcess.from_spec("2e6", seed=9)
        assert proc.base_pps == 2e6
        assert proc.phases == ()
        assert proc.seed == 9

    def test_from_spec_flash_crowd(self):
        proc = ArrivalProcess.from_spec("1e6:1e7:0.001:0.002")
        assert proc.base_pps == 1e6
        assert [p.pps for p in proc.phases] == [1e6, 1e7]

    @pytest.mark.parametrize("spec", ["", "a", "1e6:2e6", "1e6:x:0.1:0.1"])
    def test_from_spec_rejects_garbage(self, spec):
        with pytest.raises(ValueError, match="burst spec"):
            ArrivalProcess.from_spec(spec)


class TestQueueingConfig:
    def test_wire_ns_round_trip(self):
        assert QueueingConfig().wire_ns == 22_000
        assert QueueingConfig(include_wire_latency=False).wire_ns == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rx_ring_size=0),
            dict(batch_timeout_ns=-1),
            dict(softirq_delay_ns=-1),
            dict(wire_latency_ns=-1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QueueingConfig(**kwargs)


class TestCoreQueue:
    def cfg(self, **kw):
        kw.setdefault("rx_ring_size", 4)
        kw.setdefault("batch_timeout_ns", 1000)
        kw.setdefault("softirq_delay_ns", 100)
        return QueueingConfig(**kw)

    def pkt(self, i=0):
        return FlowGenerator(n_flows=8, seed=1).trace(i + 1)[i]

    def test_overflow_drop_when_ring_full(self):
        q = CoreQueue(self.cfg(rx_ring_size=2), batch_size=8)
        assert q.offer(self.pkt(0), 0)
        assert q.offer(self.pkt(1), 10)
        assert not q.offer(self.pkt(2), 20)
        assert q.overflowed == 1
        assert len(q) == 2

    def test_pickup_on_fullness_timeout_and_busy_server(self):
        q = CoreQueue(self.cfg(), batch_size=2)
        q.offer(self.pkt(0), 0)
        assert q.pickup_ns() == 1000  # partial: oldest frame times out
        q.offer(self.pkt(1), 600)
        assert q.pickup_ns() == 600   # full batch closes at its fill instant
        q.complete([0], ready_ns=0, service_ns=800)
        assert q.pickup_ns() == q.server_free_ns == 900  # server still busy

    def test_complete_sojourns_spread_service(self):
        q = CoreQueue(self.cfg(softirq_delay_ns=100), batch_size=2)
        sojourns = q.complete([0, 50], ready_ns=50, service_ns=200)
        # start = max(0, 50) + 100 = 150; completions at 250 and 350,
        # plus the two wire crossings the config includes.
        wire = q.cfg.wire_ns
        assert wire == 22_000
        assert sojourns == [250 + wire, 300 + wire]
        assert q.server_free_ns == 350
        assert q.served == 2
        assert q.busy_ns == 200

    def test_busy_server_delays_next_batch(self):
        q = CoreQueue(
            self.cfg(softirq_delay_ns=0, include_wire_latency=False),
            batch_size=1,
        )
        q.complete([0], ready_ns=0, service_ns=1000)
        sojourns = q.complete([10], ready_ns=10, service_ns=100)
        # Second batch waits for the server: starts at 1000, done 1100.
        assert sojourns == [1090]

    def test_take_and_drain(self):
        q = CoreQueue(self.cfg(rx_ring_size=16), batch_size=2)
        for i in range(5):
            q.offer(self.pkt(i), i * 10)
        batch, times = q.take()
        assert len(batch) == 2 and times == [0, 10]
        rest, rest_times = q.drain()
        assert len(rest) == 3 and rest_times == [20, 30, 40]
        assert len(q) == 0


def _recomputed_pickup(q):
    """``max(ready, server free)`` from the ring's arrivals alone."""
    arrivals = q.arrivals
    if not arrivals:
        return math.inf
    if len(arrivals) >= q.batch_size:
        ready = arrivals[q.batch_size - 1]
    else:
        ready = arrivals[0] + q.cfg.batch_timeout_ns
    return max(ready, q.server_free_ns)


queue_ops = st.lists(
    st.one_of(
        st.tuples(st.just("offer"), st.integers(0, 3_000)),
        st.tuples(st.just("take"), st.just(0)),
        st.tuples(st.just("complete"), st.integers(0, 5_000)),
        st.tuples(st.just("drain"), st.just(0)),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(
    ring=st.integers(min_value=1, max_value=6),
    batch_size=st.integers(min_value=1, max_value=4),
    timeout=st.sampled_from([0, 700, 20_000]),
    ops=queue_ops,
)
def test_kept_pickup_equals_its_definition_after_every_op(
    ring, batch_size, timeout, ops
):
    """The kept ``pickup`` is ``pickup_ns()`` after every offer (an
    overflowing one included), take, complete and drain."""
    cfg = QueueingConfig(rx_ring_size=ring, batch_timeout_ns=timeout)
    q = CoreQueue(cfg, batch_size)
    pkt = FlowGenerator(n_flows=4, seed=1).trace(1)[0]
    now = 0
    taken = []
    for op, arg in ops:
        if op == "offer":
            now += arg
            q.offer(pkt, now)
        elif op == "take" and q.pending:
            taken = q.take()[1]
        elif op == "complete" and taken:
            q.complete(taken, taken[-1], arg)
            taken = []
        elif op == "drain":
            q.drain()
        assert q.pickup == _recomputed_pickup(q)
        if q.pending:
            assert q.pickup == q.pickup_ns()


class TestLatencySummary:
    def test_empty(self):
        summary = latency_summary_us([])
        assert summary["n"] == 0
        assert summary["p99_us"] == 0.0

    def test_percentiles_ordered(self):
        summary = latency_summary_us(list(range(0, 100_000, 100)))
        assert summary["p50_us"] <= summary["p95_us"] <= summary["p99_us"]
        assert summary["max_us"] >= summary["p99_us"]


class TestDispatcherLatencyPath:
    def test_cycle_totals_identical_with_model_on_or_off(self):
        # Queueing adds information (latency, overflow), never charges:
        # the batch boundaries it induces must not change cycle totals.
        t = bursty_trace(3000, 2e6)
        plain = RssDispatcher(countmin_factory, n_cores=4).run(t)
        queued = RssDispatcher(
            countmin_factory, n_cores=4, queueing=QueueingConfig()
        ).run(t)
        assert queued.total_cycles == plain.total_cycles
        assert queued.actions == plain.actions
        assert queued.n_packets == plain.n_packets

    def test_disabled_path_reports_no_latency(self):
        result = RssDispatcher(countmin_factory, n_cores=2).run(
            bursty_trace(500, 1e6)
        )
        assert result.latencies_ns == []
        assert result.overflow_drops == 0
        assert result.p99_latency_us == 0.0

    def test_queued_run_reports_latency(self):
        result = RssDispatcher(
            countmin_factory, n_cores=4, queueing=QueueingConfig()
        ).run(bursty_trace(3000, 2e6))
        assert len(result.latencies_ns) == 3000
        summary = result.latency_summary()
        assert summary["p50_us"] <= summary["p99_us"]
        # Moderate load on 4 cores: wire (22us) + coalesce + service.
        assert 22.0 < summary["p99_us"] < 200.0

    def test_latency_grows_with_offered_load(self):
        light = RssDispatcher(
            countmin_factory, n_cores=2, queueing=QueueingConfig()
        ).run(bursty_trace(4000, 1e6))
        heavy = RssDispatcher(
            countmin_factory, n_cores=2, queueing=QueueingConfig()
        ).run(bursty_trace(4000, 5e7))
        assert heavy.p99_latency_us > light.p99_latency_us

    def test_sustained_overload_overflows_the_ring(self):
        # 2 cores of CountMin sustain ~10 Mpps; offer 50 Mpps into
        # small rings and frames must spill.
        result = RssDispatcher(
            countmin_factory,
            n_cores=2,
            queueing=QueueingConfig(rx_ring_size=128),
        ).run(bursty_trace(8000, 5e7))
        assert result.overflow_drops > 0
        assert result.is_fully_accounted

    def test_overflowed_frames_cost_no_cycles(self):
        t = bursty_trace(8000, 5e7)
        plain = RssDispatcher(countmin_factory, n_cores=2).run(t)
        queued = RssDispatcher(
            countmin_factory,
            n_cores=2,
            queueing=QueueingConfig(rx_ring_size=128),
        ).run(t)
        # Dropped-at-the-ring frames never reach the hook, so the
        # queued run charges strictly fewer cycles.
        assert queued.overflow_drops > 0
        assert queued.total_cycles < plain.total_cycles

    def test_queued_run_is_deterministic(self):
        t = bursty_trace(3000, 3e6)
        runs = [
            RssDispatcher(
                countmin_factory, n_cores=4, queueing=QueueingConfig()
            ).run(t)
            for _ in range(2)
        ]
        assert runs[0].latencies_ns == runs[1].latencies_ns
        assert runs[0].overflow == runs[1].overflow
        assert runs[0].per_core == runs[1].per_core

    def test_wire_latency_toggle(self):
        t = bursty_trace(1000, 1e6)
        with_wire = RssDispatcher(
            countmin_factory, n_cores=2, queueing=QueueingConfig()
        ).run(t)
        without = RssDispatcher(
            countmin_factory,
            n_cores=2,
            queueing=QueueingConfig(include_wire_latency=False),
        ).run(t)
        diff = with_wire.latencies_ns[0] - without.latencies_ns[0]
        assert diff == 22_000
