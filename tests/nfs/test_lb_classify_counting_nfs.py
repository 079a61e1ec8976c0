"""Tests for EFD load balancing, TSS classification, and HeavyKeeper."""

from repro.analysis.experiments import make_rules_for_flows
from repro.ebpf.cost_model import ExecMode
from repro.ebpf.runtime import BpfRuntime
from repro.net.flowgen import FlowGenerator
from repro.net.packet import XdpAction
from repro.net.xdp import XdpPipeline
from repro.nfs import EfdLoadBalancerNF, HeavyKeeperNF, TssClassifierNF


def rt_for(mode, seed=1):
    return BpfRuntime(mode=mode, seed=seed)


class TestEfdNF:
    def test_bound_flows_reach_their_targets(self):
        nf = EfdLoadBalancerNF(rt_for(ExecMode.ENETSTL), n_groups=256)
        fg = FlowGenerator(200, seed=6)
        placed = nf.bind_flows((f.key_int for f in fg.flows), lambda k: k % 4)
        assert placed == 200
        for f in fg.flows:
            assert nf.lookup(f.key_int) == f.key_int % 4

    def test_traffic_spread_across_backends(self):
        nf = EfdLoadBalancerNF(rt_for(ExecMode.ENETSTL), n_groups=256)
        fg = FlowGenerator(200, seed=6)
        nf.bind_flows((f.key_int for f in fg.flows), lambda k: k % 4)
        result = XdpPipeline(nf).run(fg.trace(400))
        assert result.actions == {XdpAction.REDIRECT: 400}
        assert sum(nf.dispatched) == 400
        assert all(d > 0 for d in nf.dispatched)

    def test_mode_cost_ordering(self):
        fg = FlowGenerator(128, seed=6)
        trace = fg.trace(200)
        totals = {}
        for mode in ExecMode:
            nf = EfdLoadBalancerNF(rt_for(mode), n_groups=256)
            nf.bind_flows((f.key_int for f in fg.flows), lambda k: k % 4)
            totals[mode] = XdpPipeline(nf).run(trace).cycles_per_packet
        assert totals[ExecMode.PURE_EBPF] > totals[ExecMode.ENETSTL]
        assert totals[ExecMode.ENETSTL] > totals[ExecMode.KERNEL]


class TestTssNF:
    def _loaded(self, mode, n_rules=256):
        nf = TssClassifierNF(rt_for(mode))
        fg = FlowGenerator(512, seed=7)
        nf.install_rules(make_rules_for_flows(fg.flows[:n_rules]))
        return nf, fg

    def test_rule_flows_match(self):
        nf, fg = self._loaded(ExecMode.ENETSTL)
        # Traffic restricted to flows that have rules.
        fg.flows = fg.flows[:256]
        result = XdpPipeline(nf).run(fg.trace(200))
        assert result.actions == {XdpAction.PASS: 200}
        assert nf.matched == 200

    def test_tuple_count_matches_masks(self):
        nf, _ = self._loaded(ExecMode.KERNEL)
        assert nf.classifier.n_tuples == 8

    def test_classify_returns_best_priority(self):
        nf, fg = self._loaded(ExecMode.KERNEL)
        hit = nf.classify(fg.flows[0])
        assert hit is not None and hit.action == "permit"

    def test_empty_ruleset_drops(self):
        nf = TssClassifierNF(rt_for(ExecMode.ENETSTL))
        fg = FlowGenerator(8, seed=7)
        result = XdpPipeline(nf).run(fg.trace(20))
        assert result.actions == {XdpAction.DROP: 20}

    def test_mode_cost_ordering(self):
        totals = {}
        for mode in ExecMode:
            nf, fg = self._loaded(mode)
            totals[mode] = XdpPipeline(nf).run(fg.trace(150)).cycles_per_packet
        assert totals[ExecMode.PURE_EBPF] > totals[ExecMode.ENETSTL]
        assert totals[ExecMode.ENETSTL] > totals[ExecMode.KERNEL]


class TestHeavyKeeperNF:
    def test_finds_elephants_in_zipf_traffic(self):
        nf = HeavyKeeperNF(rt_for(ExecMode.ENETSTL, seed=8), k=16)
        fg = FlowGenerator(512, seed=8, distribution="zipf", zipf_s=1.3)
        XdpPipeline(nf).run(fg.trace(6000))
        top_keys = [k for _, k in nf.topk()[:4]]
        # The head of the zipf population should dominate the top-k.
        heavy = {f.key_int for f in fg.flows[:8]}
        assert sum(1 for k in top_keys if k in heavy) >= 3

    def test_estimates_track_heavy_flows(self):
        nf = HeavyKeeperNF(rt_for(ExecMode.KERNEL, seed=8))
        fg = FlowGenerator(4, seed=8, distribution="round_robin")
        XdpPipeline(nf).run(fg.trace(800))
        for f in fg.flows:
            assert nf.estimate(f.key_int) >= 120   # true count 200, decay

    def test_processed_counter(self):
        nf = HeavyKeeperNF(rt_for(ExecMode.ENETSTL))
        fg = FlowGenerator(8, seed=1)
        XdpPipeline(nf).run(fg.trace(50))
        assert nf.processed == 50

    def test_mode_cost_ordering(self):
        fg = FlowGenerator(256, seed=8, distribution="zipf")
        trace = fg.trace(400)
        totals = {}
        for mode in ExecMode:
            nf = HeavyKeeperNF(rt_for(mode, seed=8))
            totals[mode] = XdpPipeline(nf).run(trace).cycles_per_packet
        assert totals[ExecMode.PURE_EBPF] > totals[ExecMode.ENETSTL]
        assert totals[ExecMode.ENETSTL] > totals[ExecMode.KERNEL]
