"""Tests for the sketching NFs: Count-min and NitroSketch."""

import pytest

from repro.ebpf.cost_model import ExecMode
from repro.ebpf.runtime import BpfRuntime
from repro.net.flowgen import FlowGenerator
from repro.net.packet import XdpAction
from repro.net.xdp import XdpPipeline
from repro.nfs import CountMinNF, NitroSketchNF


def rt_for(mode, seed=1):
    return BpfRuntime(mode=mode, seed=seed)


class TestCountMinNF:
    def test_estimates_never_underestimate(self):
        rt = rt_for(ExecMode.ENETSTL)
        nf = CountMinNF(rt, depth=4, width=1024)
        fg = FlowGenerator(64, seed=2)
        trace = fg.trace(2000)
        truth = {}
        for p in trace:
            truth[p.key_int] = truth.get(p.key_int, 0) + 1
        XdpPipeline(nf).run(trace)
        for key, count in truth.items():
            assert nf.true_free_estimate(key) >= count

    def test_estimates_close_with_wide_sketch(self):
        rt = rt_for(ExecMode.ENETSTL)
        nf = CountMinNF(rt, depth=4, width=8192)
        fg = FlowGenerator(32, seed=2)
        trace = fg.trace(1000)
        truth = {}
        for p in trace:
            truth[p.key_int] = truth.get(p.key_int, 0) + 1
        XdpPipeline(nf).run(trace)
        for key, count in truth.items():
            assert nf.true_free_estimate(key) <= count + 5

    def test_all_packets_dropped(self):
        nf = CountMinNF(rt_for(ExecMode.PURE_EBPF))
        fg = FlowGenerator(8, seed=1)
        result = XdpPipeline(nf).run(fg.trace(50))
        assert result.actions == {XdpAction.DROP: 50}
        assert nf.sketch.total == 50

    def test_crc_cutover_for_shallow_sketches(self):
        """depth <= 2 uses per-row CRC instead of the SIMD batch."""
        shallow = rt_for(ExecMode.ENETSTL)
        CountMinNF(shallow, depth=1).process(
            FlowGenerator(2, seed=1).trace(1)[0]
        )
        costs = shallow.costs
        # A SIMD batch would charge hash_simd_setup; CRC path must not.
        assert shallow.cycles.total < (
            costs.xdp_dispatch  # no pipeline here, but keep it simple
            + costs.map_lookup
            + costs.hash_simd_setup
            + costs.hash_simd_lane
            + 50
        )

    def test_mode_cost_ordering_deep_sketch(self):
        totals = {}
        fg = FlowGenerator(16, seed=1)
        trace = fg.trace(200)
        for mode in ExecMode:
            nf = CountMinNF(rt_for(mode), depth=8)
            totals[mode] = XdpPipeline(nf).run(trace).cycles_per_packet
        assert totals[ExecMode.PURE_EBPF] > totals[ExecMode.ENETSTL]
        assert totals[ExecMode.ENETSTL] >= totals[ExecMode.KERNEL]

    def test_deeper_sketch_costs_more(self):
        fg = FlowGenerator(16, seed=1)
        trace = fg.trace(100)
        shallow = XdpPipeline(CountMinNF(rt_for(ExecMode.PURE_EBPF), depth=2)).run(trace)
        deep = XdpPipeline(CountMinNF(rt_for(ExecMode.PURE_EBPF), depth=8)).run(trace)
        assert deep.cycles_per_packet > shallow.cycles_per_packet

    def test_costed_estimate_matches_free_estimate(self):
        nf = CountMinNF(rt_for(ExecMode.ENETSTL), depth=4)
        fg = FlowGenerator(16, seed=1)
        trace = fg.trace(300)
        XdpPipeline(nf).run(trace)
        key = trace[0].key_int
        assert nf.estimate(key) == nf.true_free_estimate(key)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            CountMinNF(rt_for(ExecMode.KERNEL), depth=0)


class TestNitroSketchNF:
    def test_unbiased_estimates_at_scale(self):
        """E[estimate] tracks the true count (1/p scaling)."""
        rt = rt_for(ExecMode.ENETSTL, seed=4)
        nf = NitroSketchNF(rt, depth=8, width=4096, update_prob=0.25)
        fg = FlowGenerator(4, seed=4, distribution="round_robin")
        trace = fg.trace(8000)    # 2000 packets per flow
        XdpPipeline(nf).run(trace)
        for flow in fg.flows:
            estimate = nf.estimate(flow.key_int)
            assert estimate == pytest.approx(2000, rel=0.30)

    def test_p_one_updates_every_row(self):
        rt = rt_for(ExecMode.ENETSTL, seed=4)
        nf = NitroSketchNF(rt, depth=4, width=2048, update_prob=1.0)
        fg = FlowGenerator(2, seed=1, distribution="round_robin")
        XdpPipeline(nf).run(fg.trace(100))
        assert nf.estimate(fg.flows[0].key_int) == pytest.approx(50, abs=5)

    def test_ebpf_sampling_rate_respected(self):
        rt = rt_for(ExecMode.PURE_EBPF, seed=4)
        nf = NitroSketchNF(rt, depth=8, width=4096, update_prob=0.25)
        fg = FlowGenerator(4, seed=4, distribution="round_robin")
        XdpPipeline(nf).run(fg.trace(4000))
        est = nf.estimate(fg.flows[0].key_int)
        assert est == pytest.approx(1000, rel=0.4)

    def test_lower_probability_cheaper(self):
        fg = FlowGenerator(16, seed=1)
        trace = fg.trace(400)
        costs = {}
        for p in (1 / 64, 1.0):
            nf = NitroSketchNF(rt_for(ExecMode.ENETSTL, seed=2), update_prob=p)
            costs[p] = XdpPipeline(nf).run(trace).cycles_per_packet
        assert costs[1 / 64] < costs[1.0]

    def test_mode_cost_ordering(self):
        fg = FlowGenerator(16, seed=1)
        trace = fg.trace(300)
        totals = {}
        for mode in ExecMode:
            nf = NitroSketchNF(rt_for(mode, seed=2), update_prob=0.5)
            totals[mode] = XdpPipeline(nf).run(trace).cycles_per_packet
        assert totals[ExecMode.PURE_EBPF] > totals[ExecMode.ENETSTL]
        assert totals[ExecMode.ENETSTL] > totals[ExecMode.KERNEL]

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            NitroSketchNF(rt_for(ExecMode.KERNEL), update_prob=0.0)
        with pytest.raises(ValueError):
            NitroSketchNF(rt_for(ExecMode.KERNEL), update_prob=1.5)

    @pytest.mark.parametrize("mode", list(ExecMode))
    @pytest.mark.parametrize(
        "geometry",
        [{"width": 0}, {"depth": 0}, {"depth": -1}, {"width": -5}],
        ids=["width0", "depth0", "depth-1", "width-5"],
    )
    def test_invalid_geometry(self, mode, geometry):
        """Rejected at construction in every mode, as CountMinNF does,
        instead of aborting every packet later."""
        with pytest.raises(ValueError):
            NitroSketchNF(rt_for(mode), **geometry)
