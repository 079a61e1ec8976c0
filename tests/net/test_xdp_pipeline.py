"""Tests for the XDP pipeline simulator."""

import pytest

from repro.ebpf.cost_model import CPU_HZ, Category, ExecMode
from repro.ebpf.runtime import BpfRuntime
from repro.net.flowgen import FlowGenerator
from repro.net.packet import XdpAction
from repro.net.xdp import BASE_WIRE_LATENCY_NS, XdpPipeline


class FixedCostNF:
    """Charges a constant per packet and returns a fixed action."""

    def __init__(self, cycles=100, action=XdpAction.DROP, mode=ExecMode.PURE_EBPF):
        self.rt = BpfRuntime(mode=mode)
        self.cost = cycles
        self.action = action

    def process(self, packet):
        self.rt.charge(self.cost, Category.OTHER)
        return self.action


class TestPipeline:
    def test_counts_actions(self):
        nf = FixedCostNF(action=XdpAction.TX)
        trace = FlowGenerator(8, seed=1).trace(50)
        result = XdpPipeline(nf).run(trace)
        assert result.n_packets == 50
        assert result.actions == {XdpAction.TX: 50}

    def test_cycles_per_packet_includes_framework(self):
        nf = FixedCostNF(cycles=100)
        trace = FlowGenerator(8, seed=1).trace(10)
        result = XdpPipeline(nf).run(trace)
        costs = nf.rt.costs
        expected = 100 + costs.xdp_dispatch + costs.packet_parse
        assert result.cycles_per_packet == pytest.approx(expected)

    def test_pps_derivation(self):
        nf = FixedCostNF(cycles=2100)   # +100 framework = 2200 cycles
        trace = FlowGenerator(8, seed=1).trace(10)
        result = XdpPipeline(nf).run(trace)
        assert result.pps == pytest.approx(CPU_HZ / result.cycles_per_packet)
        assert result.mpps == pytest.approx(result.pps / 1e6)

    def test_invalid_action_rejected(self):
        nf = FixedCostNF(action="XDP_EXPLODE")
        trace = FlowGenerator(8, seed=1).trace(1)
        with pytest.raises(ValueError):
            XdpPipeline(nf).run(trace)

    def test_latency_includes_wire_and_processing(self):
        nf = FixedCostNF(cycles=22_000)   # 10 us of processing
        trace = FlowGenerator(8, seed=1).trace(5)
        result = XdpPipeline(nf).run(trace, measure_latency=True)
        expected_us = (2 * BASE_WIRE_LATENCY_NS) / 1000 + 10.0
        assert result.avg_latency_us == pytest.approx(expected_us, rel=0.02)

    def test_clock_advances_with_trace(self):
        nf = FixedCostNF()
        trace = FlowGenerator(8, seed=1).trace(10, inter_arrival_ns=1000)
        XdpPipeline(nf).run(trace)
        assert nf.rt.now_ns == 9000

    def test_behavior_share(self):
        nf = FixedCostNF(cycles=100)
        trace = FlowGenerator(8, seed=1).trace(10)
        result = XdpPipeline(nf).run(trace)
        assert 0 < result.behavior_share(Category.OTHER) < 1
        total = (
            result.behavior_share(Category.OTHER)
            + result.behavior_share(Category.FRAMEWORK)
            + result.behavior_share(Category.PARSE)
        )
        assert total == pytest.approx(1.0)

    def test_warm_then_measure_excludes_warmup(self):
        nf = FixedCostNF(cycles=50)
        fg = FlowGenerator(8, seed=1)
        pipeline = XdpPipeline(nf)
        warm = pipeline.run(fg.trace(100))
        result = pipeline.run(fg.trace(10))
        assert warm.n_packets == 100
        assert result.n_packets == 10
        assert sum(result.actions.values()) == 10
        assert result.total_cycles == pytest.approx(
            10 * (50 + nf.rt.costs.xdp_dispatch + nf.rt.costs.packet_parse)
        )

    def test_empty_trace(self):
        nf = FixedCostNF()
        result = XdpPipeline(nf).run([])
        assert result.n_packets == 0
        assert result.pps == 0.0
        assert result.proc_time_ns == 0.0
        assert result.avg_latency_us == 0.0


class TestLatencyAtLoad:
    def _result(self, cycles=2100):
        nf = FixedCostNF(cycles=cycles)
        trace = FlowGenerator(8, seed=1).trace(10)
        return XdpPipeline(nf).run(trace)

    def test_low_load_is_wire_dominated(self):
        result = self._result()
        low = result.latency_at_load_us(1000)
        assert low == pytest.approx(2 * BASE_WIRE_LATENCY_NS / 1000 + 1.0, rel=0.01)

    def test_latency_grows_with_load(self):
        result = self._result()
        assert (
            result.latency_at_load_us(1e3)
            < result.latency_at_load_us(result.pps * 0.5)
            < result.latency_at_load_us(result.pps * 0.95)
        )

    def test_saturation_is_infinite(self):
        result = self._result()
        assert result.latency_at_load_us(result.pps) == float("inf")
        assert result.latency_at_load_us(result.pps * 2) == float("inf")

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            self._result().latency_at_load_us(0)
