"""Sanity anchors: absolute simulated rates sit in publicly plausible
regimes, and the headline ratios are stable across seeds and trace
lengths."""

import pytest

from repro.ebpf.cost_model import ExecMode
from repro.ebpf.runtime import BpfRuntime
from repro.net.flowgen import FlowGenerator
from repro.net.packet import Packet, XdpAction
from repro.net.xdp import XdpPipeline
from repro.nfs import CountMinNF
import repro.analysis as a


class DropAllNF:
    """The canonical XDP_DROP baseline: no NF work at all."""

    def __init__(self) -> None:
        self.rt = BpfRuntime(mode=ExecMode.PURE_EBPF)

    def process(self, packet: Packet) -> str:
        return XdpAction.DROP


class TestAbsoluteRates:
    def test_xdp_drop_baseline_rate(self):
        """Trivial XDP drop ~= 22 Mpps/core — the regime public XDP
        benchmarks report (20-25 Mpps on comparable hardware)."""
        trace = FlowGenerator(16, seed=1).trace(200)
        result = XdpPipeline(DropAllNF()).run(trace)
        assert 15e6 < result.pps < 30e6

    def test_nf_rates_below_baseline(self):
        """Every real NF costs more than the empty program."""
        trace = FlowGenerator(64, seed=1).trace(200)
        baseline = XdpPipeline(DropAllNF()).run(trace).pps
        nf = CountMinNF(BpfRuntime(mode=ExecMode.ENETSTL), depth=4)
        assert XdpPipeline(nf).run(trace).pps < baseline

    def test_sketch_rates_in_published_regime(self):
        """eBPF sketches run single-digit Mpps per core in the
        literature; ours do too."""
        trace = FlowGenerator(512, seed=1).trace(400)
        for mode in ExecMode:
            nf = CountMinNF(BpfRuntime(mode=mode), depth=8)
            pps = XdpPipeline(nf).run(trace).pps
            assert 1e6 < pps < 15e6, mode


class TestStability:
    def test_ratios_stable_across_seeds(self):
        imps = []
        for seed in (7, 77, 777):
            s = a.fig3e_countmin(n_packets=300, seed=seed)
            imps.append(s.avg_improvement())
        assert max(imps) - min(imps) < 0.03

    def test_ratios_stable_across_trace_length(self):
        short = a.fig3e_countmin(n_packets=200).avg_improvement()
        long = a.fig3e_countmin(n_packets=1200).avg_improvement()
        assert abs(short - long) < 0.02

    def test_improvement_is_deterministic(self):
        first = a.fig3c_cuckoo_switch(n_packets=250).avg_improvement()
        second = a.fig3c_cuckoo_switch(n_packets=250).avg_improvement()
        assert first == pytest.approx(second, abs=1e-12)
