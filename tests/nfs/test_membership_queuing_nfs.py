"""Tests for membership (cuckoo filter, vBF) and queuing (time wheel,
Eiffel) NFs."""

from repro.ebpf.cost_model import ExecMode
from repro.ebpf.runtime import BpfRuntime
from repro.net.flowgen import FlowGenerator
from repro.net.packet import XdpAction
from repro.net.xdp import XdpPipeline
from repro.nfs import CuckooFilterNF, EiffelNF, TimeWheelNF, VbfNF


def rt_for(mode, seed=1):
    return BpfRuntime(mode=mode, seed=seed)


class TestCuckooFilterNF:
    def test_members_pass_nonmembers_drop(self):
        nf = CuckooFilterNF(rt_for(ExecMode.ENETSTL), n_buckets=1024)
        members = FlowGenerator(256, seed=2)
        nf.populate(f.key_int for f in members.flows)
        result = XdpPipeline(nf).run(members.trace(200))
        assert result.actions == {XdpAction.PASS: 200}
        foreign = FlowGenerator(256, seed=77)
        result = XdpPipeline(nf).run(foreign.trace(200))
        assert result.actions.get(XdpAction.DROP, 0) >= 195

    def test_counters(self):
        nf = CuckooFilterNF(rt_for(ExecMode.KERNEL), n_buckets=512)
        fg = FlowGenerator(64, seed=2)
        nf.populate(f.key_int for f in fg.flows)
        XdpPipeline(nf).run(fg.trace(100))
        assert nf.members == 100 and nf.nonmembers == 0

    def test_mode_cost_ordering(self):
        fg = FlowGenerator(512, seed=2)
        totals = {}
        for mode in ExecMode:
            nf = CuckooFilterNF(rt_for(mode), n_buckets=512)
            nf.populate(f.key_int for f in fg.flows)
            totals[mode] = XdpPipeline(nf).run(fg.trace(200)).cycles_per_packet
        assert totals[ExecMode.PURE_EBPF] > totals[ExecMode.ENETSTL]
        assert totals[ExecMode.ENETSTL] > totals[ExecMode.KERNEL]

    def test_higher_load_costs_more(self):
        costs = []
        for n in (200, 1900):
            fg = FlowGenerator(n, seed=2)
            nf = CuckooFilterNF(rt_for(ExecMode.PURE_EBPF), n_buckets=512)
            nf.populate(f.key_int for f in fg.flows)
            costs.append(XdpPipeline(nf).run(fg.trace(200)).cycles_per_packet)
        assert costs[1] > costs[0]


class TestVbfNF:
    def _loaded(self, mode):
        nf = VbfNF(rt_for(mode))
        fg = FlowGenerator(256, seed=3)
        for i, f in enumerate(fg.flows):
            nf.add_member(f.key_int, i % nf.vbf.n_sets)
        return nf, fg

    def test_members_classified(self):
        nf, fg = self._loaded(ExecMode.ENETSTL)
        result = XdpPipeline(nf).run(fg.trace(200))
        assert result.actions == {XdpAction.PASS: 200}

    def test_lookup_returns_correct_set(self):
        nf, fg = self._loaded(ExecMode.KERNEL)
        for i, f in enumerate(fg.flows[:50]):
            set_id = nf.lookup(f.key_int)
            # The true set must be among the candidates (lowest is
            # returned; false positives can only lower it).
            assert set_id is not None
            assert set_id <= i % nf.vbf.n_sets

    def test_nonmembers_mostly_dropped(self):
        nf, _ = self._loaded(ExecMode.ENETSTL)
        foreign = FlowGenerator(128, seed=55)
        result = XdpPipeline(nf).run(foreign.trace(200))
        assert result.actions.get(XdpAction.DROP, 0) >= 180

    def test_mode_cost_ordering(self):
        totals = {}
        for mode in ExecMode:
            nf, fg = self._loaded(mode)
            totals[mode] = XdpPipeline(nf).run(fg.trace(150)).cycles_per_packet
        assert totals[ExecMode.PURE_EBPF] > totals[ExecMode.ENETSTL]
        assert totals[ExecMode.ENETSTL] > totals[ExecMode.KERNEL]


class TestTimeWheelNF:
    def test_packets_eventually_transmitted(self):
        rt = rt_for(ExecMode.ENETSTL)
        nf = TimeWheelNF(rt, tick_ns=1000, delay_range_ns=50_000)
        fg = FlowGenerator(32, seed=4)
        XdpPipeline(nf).run(fg.trace(500, inter_arrival_ns=1000))
        # With delays <= 50us and 500us of trace, almost all drained.
        assert nf.dequeued >= 400
        assert nf.enqueued == 500

    def test_pacing_order_respects_timestamps(self):
        rt = rt_for(ExecMode.KERNEL)
        nf = TimeWheelNF(rt, tick_ns=100, delay_range_ns=10_000)
        fg = FlowGenerator(16, seed=4)
        XdpPipeline(nf).run(fg.trace(300, inter_arrival_ns=500))
        assert nf.pending == nf.enqueued - nf.dequeued

    def test_mode_cost_ordering(self):
        fg = FlowGenerator(32, seed=4)
        trace = fg.trace(400, inter_arrival_ns=1000)
        totals = {}
        for mode in ExecMode:
            nf = TimeWheelNF(rt_for(mode), tick_ns=1000)
            totals[mode] = XdpPipeline(nf).run(trace).cycles_per_packet
        assert totals[ExecMode.PURE_EBPF] > totals[ExecMode.ENETSTL]
        assert totals[ExecMode.ENETSTL] > totals[ExecMode.KERNEL]

    def test_finer_ticks_cost_more(self):
        fg = FlowGenerator(32, seed=4)
        trace = fg.trace(300, inter_arrival_ns=1000)
        fine = XdpPipeline(TimeWheelNF(rt_for(ExecMode.PURE_EBPF), tick_ns=250)).run(trace)
        coarse = XdpPipeline(TimeWheelNF(rt_for(ExecMode.PURE_EBPF), tick_ns=4000)).run(trace)
        assert fine.cycles_per_packet > coarse.cycles_per_packet


class TestEiffelNF:
    def test_enqueue_dequeue_balance(self):
        nf = EiffelNF(rt_for(ExecMode.ENETSTL), levels=2)
        fg = FlowGenerator(32, seed=5)
        result = XdpPipeline(nf).run(fg.trace(300))
        assert nf.enqueued == 300 and nf.dequeued == 300
        assert nf.pending == 0
        assert result.actions == {XdpAction.TX: 300}

    def test_more_levels_cost_more(self):
        fg = FlowGenerator(32, seed=5)
        trace = fg.trace(200)
        shallow = XdpPipeline(EiffelNF(rt_for(ExecMode.PURE_EBPF), levels=1)).run(trace)
        deep = XdpPipeline(EiffelNF(rt_for(ExecMode.PURE_EBPF), levels=4)).run(trace)
        assert deep.cycles_per_packet > shallow.cycles_per_packet

    def test_mode_cost_ordering(self):
        fg = FlowGenerator(32, seed=5)
        trace = fg.trace(200)
        totals = {}
        for mode in ExecMode:
            nf = EiffelNF(rt_for(mode), levels=3)
            totals[mode] = XdpPipeline(nf).run(trace).cycles_per_packet
        assert totals[ExecMode.PURE_EBPF] > totals[ExecMode.ENETSTL]
        assert totals[ExecMode.ENETSTL] >= totals[ExecMode.KERNEL]
