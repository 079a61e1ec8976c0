"""Batched replay must be cycle-identical to the per-packet path."""

import pytest

from repro.ebpf.cost_model import Category, ExecMode
from repro.ebpf.runtime import BpfRuntime
from repro.net.flowgen import FlowGenerator
from repro.net.packet import XdpAction
from repro.net.xdp import DEFAULT_BATCH_SIZE, PipelineResult, XdpPipeline
from repro.nfs import BloomFilterNF, CountMinNF, MaglevNF
from tests.net.per_packet import PerPacketNF

MODES = list(ExecMode)


def replay_both(make_nf, trace, batch_size=DEFAULT_BATCH_SIZE):
    """Run the same trace per-packet and batched on twin NF instances."""
    per_packet = XdpPipeline(PerPacketNF(make_nf())).run(trace)
    batched = XdpPipeline(make_nf()).run(trace, batch_size=batch_size)
    return per_packet, batched


def assert_cycle_identical(per_packet, batched):
    assert batched.n_packets == per_packet.n_packets
    assert batched.total_cycles == per_packet.total_cycles
    assert batched.by_category == per_packet.by_category
    assert batched.actions == per_packet.actions


class TestBatchCycleIdentity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("depth", [2, 4])
    def test_countmin(self, mode, depth):
        """Covers both the SIMD-batch path and the depth<=2 CRC path."""
        fg = FlowGenerator(n_flows=256, seed=3, distribution="zipf")
        trace = fg.trace(3000)
        make = lambda: CountMinNF(BpfRuntime(mode=mode, seed=1), depth=depth)
        per_packet, batched = replay_both(make, trace)
        assert_cycle_identical(per_packet, batched)
        # The sketches themselves must agree too.
        a = make()
        b = make()
        XdpPipeline(PerPacketNF(a)).run(trace)
        XdpPipeline(b).run(trace)
        assert a.rows == b.rows

    @pytest.mark.parametrize("mode", MODES)
    def test_bloom(self, mode):
        """Mixed hits/misses exercise the early-exit charge accounting."""
        fg = FlowGenerator(n_flows=128, seed=5)
        members = [f.key_int for f in fg.flows[:64]]
        trace = fg.trace(3000)

        def make():
            nf = BloomFilterNF(BpfRuntime(mode=mode, seed=1))
            nf.populate(members)
            return nf

        per_packet, batched = replay_both(make, trace)
        assert_cycle_identical(per_packet, batched)
        assert XdpAction.PASS in batched.actions
        assert XdpAction.DROP in batched.actions

    @pytest.mark.parametrize("mode", MODES)
    def test_maglev(self, mode):
        fg = FlowGenerator(n_flows=64, seed=7)
        trace = fg.trace(2000)
        make = lambda: MaglevNF(BpfRuntime(mode=mode, seed=1))
        per_packet, batched = replay_both(make, trace)
        assert_cycle_identical(per_packet, batched)
        # Backend dispatch counters must match as well.
        a = make()
        b = make()
        XdpPipeline(PerPacketNF(a)).run(trace)
        XdpPipeline(b).run(trace)
        assert a.dispatched == b.dispatched

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 256, 10_000])
    def test_batch_size_invariant(self, batch_size):
        """Cycle totals cannot depend on the batch granularity."""
        fg = FlowGenerator(n_flows=128, seed=9)
        trace = fg.trace(1000)
        make = lambda: CountMinNF(BpfRuntime(mode=ExecMode.ENETSTL, seed=1))
        per_packet, batched = replay_both(make, trace, batch_size=batch_size)
        assert_cycle_identical(per_packet, batched)

    def test_fallback_without_process_batch(self):
        """NFs lacking process_batch replay per-packet inside each batch."""

        class FixedCostNF:
            def __init__(self, rt):
                self.rt = rt

            def process(self, packet):
                self.rt.charge(100, Category.OTHER)
                return XdpAction.PASS

        fg = FlowGenerator(n_flows=16, seed=11)
        trace = fg.trace(500)
        per_packet, batched = replay_both(
            lambda: FixedCostNF(BpfRuntime(mode=ExecMode.KERNEL, seed=1)), trace
        )
        assert_cycle_identical(per_packet, batched)

    def test_generator_source_identical_to_list(self):
        """run over a one-shot iterator == over the same list."""
        fg = FlowGenerator(n_flows=128, seed=3, distribution="zipf")
        trace = fg.trace(2000)
        make = lambda: CountMinNF(BpfRuntime(mode=ExecMode.ENETSTL, seed=1))
        from_list = XdpPipeline(make()).run(trace)
        from_iter = XdpPipeline(make()).run(iter(trace))
        assert from_list == from_iter

    def test_run_accepts_generators(self):
        fg = FlowGenerator(n_flows=64, seed=3)
        trace = fg.trace(500)
        make = lambda: CountMinNF(BpfRuntime(mode=ExecMode.ENETSTL, seed=1))
        assert XdpPipeline(make()).run(iter(trace)) == XdpPipeline(make()).run(
            trace
        )

    def test_invalid_batch_size(self):
        nf = CountMinNF(BpfRuntime(seed=1))
        with pytest.raises(ValueError):
            XdpPipeline(nf).run([], batch_size=0)

    def test_empty_trace(self):
        nf = CountMinNF(BpfRuntime(seed=1))
        result = XdpPipeline(nf).run([])
        assert result.n_packets == 0
        assert result.total_cycles == 0
        assert result.actions == {}

    def test_invalid_batch_verdict_rejected(self):
        class BadBatchNF:
            def __init__(self, rt):
                self.rt = rt

            def process(self, packet):
                return XdpAction.PASS

            def process_batch(self, packets):
                return {"XDP_BOGUS": len(packets)}

        fg = FlowGenerator(n_flows=4, seed=1)
        nf = BadBatchNF(BpfRuntime(seed=1))
        with pytest.raises(ValueError):
            XdpPipeline(nf).run(fg.trace(10))


class TestLatencyPercentiles:
    def test_known_distribution(self):
        # 1..100 us in ns; linear-interpolated percentiles are exact.
        result = PipelineResult(
            n_packets=100,
            total_cycles=0,
            actions={},
            by_category={},
            latencies_ns=[i * 1000 for i in range(1, 101)],
        )
        assert result.p50_latency_us == pytest.approx(50.5)
        assert result.p95_latency_us == pytest.approx(95.05)
        assert result.p99_latency_us == pytest.approx(99.01)
        assert result.latency_percentile_us(0.0) == pytest.approx(1.0)
        assert result.latency_percentile_us(100.0) == pytest.approx(100.0)

    def test_empty_latencies(self):
        result = PipelineResult(
            n_packets=0, total_cycles=0, actions={}, by_category={}
        )
        assert result.p50_latency_us == 0.0
        assert result.p95_latency_us == 0.0
        assert result.p99_latency_us == 0.0

    def test_percentiles_from_measured_run(self):
        fg = FlowGenerator(n_flows=64, seed=13)
        nf = CountMinNF(BpfRuntime(mode=ExecMode.ENETSTL, seed=1))
        result = XdpPipeline(nf).run(fg.trace(400), measure_latency=True)
        assert len(result.latencies_ns) == 400
        assert 0 < result.p50_latency_us <= result.p95_latency_us
        assert result.p95_latency_us <= result.p99_latency_us
        assert result.p99_latency_us <= result.latency_percentile_us(100.0)
        # Percentiles bracket the mean for any distribution's median side.
        assert result.latency_percentile_us(0.0) <= result.avg_latency_us

    def test_run_batch_has_no_latencies(self):
        """A replay that measures no latency records none."""
        fg = FlowGenerator(n_flows=16, seed=15)
        nf = CountMinNF(BpfRuntime(mode=ExecMode.ENETSTL, seed=1))
        result = XdpPipeline(nf).run(fg.trace(100))
        assert result.latencies_ns == []
        assert result.p99_latency_us == 0.0
