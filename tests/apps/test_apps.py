"""Tests for the Fig. 7 application integrations.

Each app is one verified-IR chain run as two builds (``origin`` and
``enetstl``, :func:`repro.apps.ir.fig7_nfs`).  The key invariant: the
integrated build makes the *same forwarding decisions* and leaves the
*same app state* as the origin build — only its cycle charges change —
and each build is bit-identical across the interp and fused backends.
"""

import pytest

import repro.analysis as a
from repro.apps.ir import (
    FIG7_BUILDS,
    IR_APP_NAMES,
    app_nf,
    fig7_charges,
    fig7_nfs,
    ir_registry,
)
from repro.ebpf.cost_model import DEFAULT_COSTS, ExecMode
from repro.ebpf.progs import runnable_registry
from repro.net.flowgen import FlowGenerator
from repro.net.packet import XdpAction
from repro.net.xdp import XdpPipeline

N_FLOWS = 256


def _trace(n_packets=600, seed=3):
    fg = FlowGenerator(n_flows=N_FLOWS, seed=seed, distribution="zipf")
    return fg.trace(n_packets)


def run_both(app, n_packets=600, seed=3, backend="fused"):
    """Both builds of ``app`` over one trace: (nfs, results) by build."""
    trace = _trace(n_packets, seed)
    nfs = fig7_nfs(app, seed=seed, backend=backend)
    results = {build: XdpPipeline(nf).run(trace) for build, nf in nfs.items()}
    return nfs, results


def improvement(results):
    return results["enetstl"].pps / results["origin"].pps - 1


def state_of(nf):
    """Everything the app kfuncs keep, as comparable values."""
    st = nf.registry.app_state
    kat = st.katran
    return (
        tuple(kat.alive),
        tuple(kat.ring),
        tuple(sorted(kat.conns.items())),
        tuple(kat.stats),
        kat.evicted,
        tuple(map(tuple, st.rake_levels)),
        tuple(sorted(st.fdb.items())),
        tuple(st.learn_filter),
        tuple(map(tuple, st.sketch.rows)),
        tuple(map(tuple, st.univ_rows)),
        tuple(st.heap.topk()),
    )


def witness(nf):
    s = nf.stats
    return (
        tuple(nf.returns),
        nf.rt.cycles.total,
        nf.rt.cycles.breakdown(),
        (s.steps, s.checks_performed, s.checks_elided, s.insn_cycles,
         s.check_cycles),
    )


class TestKatran:
    def test_same_forwarding_decisions(self):
        nfs, results = run_both("katran")
        assert results["origin"].actions == results["enetstl"].actions
        assert nfs["origin"].returns == nfs["enetstl"].returns

    def test_integration_improves_throughput(self):
        _, results = run_both("katran")
        assert 0.05 < improvement(results) < 0.40

    def test_flows_learned_once(self):
        trace = _trace()
        nfs, _ = run_both("katran")
        for nf in nfs.values():
            conns = nf.registry.app_state.katran.conns
            assert len(conns) <= N_FLOWS
            assert sum(nf.registry.app_state.katran.stats) == len(trace)


class TestRakeLimit:
    def test_same_sketch_contents(self):
        nfs, _ = run_both("rakelimit")
        levels = [nf.registry.app_state.rake_levels for nf in nfs.values()]
        assert levels[0] == levels[1]
        assert sum(levels[0][0]) == 600

    def test_same_verdicts(self):
        # Long enough for heavy flows to cross the drop budget, so the
        # compared verdicts include drops.
        nfs, results = run_both("rakelimit", n_packets=2000)
        assert results["origin"].dropped > 0
        assert results["origin"].actions == results["enetstl"].actions
        assert nfs["origin"].returns == nfs["enetstl"].returns

    def test_heavy_flows_get_dropped(self):
        _, results = run_both("rakelimit", n_packets=2000)
        for result in results.values():
            assert result.dropped > 0
            assert result.actions[XdpAction.PASS] > 0

    def test_integration_improves_throughput(self):
        _, results = run_both("rakelimit")
        assert 0.10 < improvement(results) < 0.45


class TestPolycube:
    def test_same_forwarding_decisions(self):
        nfs, results = run_both("polycube")
        assert results["origin"].actions == results["enetstl"].actions
        assert nfs["origin"].returns == nfs["enetstl"].returns

    def test_learned_macs_forwarded_not_flooded(self):
        trace = _trace(1500)
        nfs, results = run_both("polycube", n_packets=1500)
        src_macs = {p.src_ip | (p.src_port << 32) for p in trace}
        for build, result in results.items():
            fwd = result.actions.get(XdpAction.REDIRECT, 0)
            flooded = result.actions.get(XdpAction.PASS, 0)
            assert fwd + flooded == 1500
            assert set(nfs[build].registry.app_state.fdb) == src_macs

    def test_integration_improves_throughput(self):
        _, results = run_both("polycube")
        assert 0.08 < improvement(results) < 0.40


class TestSketchSuite:
    def test_same_cm_estimates(self):
        nfs, _ = run_both("sketches")
        a_st, b_st = (nf.registry.app_state for nf in nfs.values())
        assert a_st.sketch.rows == b_st.sketch.rows
        assert a_st.heap.topk() == b_st.heap.topk()

    def test_integration_improves_throughput(self):
        _, results = run_both("sketches")
        assert 0.15 < improvement(results) < 0.50

    def test_univ_layer_sampled(self):
        nfs, _ = run_both("sketches", n_packets=2000)
        for nf in nfs.values():
            univ = nf.registry.app_state.univ_rows
            # Every packet lands in exactly one universal-sketch level.
            assert sum(map(sum, univ)) == 2000
            assert all(sum(row) > 0 for row in univ)


class TestAllApps:
    @pytest.mark.parametrize("name", sorted(IR_APP_NAMES))
    def test_modes_match_integration_flag(self, name):
        nfs = fig7_nfs(name)
        assert list(nfs) == list(FIG7_BUILDS)
        assert nfs["enetstl"].rt.mode is ExecMode.ENETSTL
        assert nfs["origin"].rt.mode is ExecMode.PURE_EBPF
        # One verified chain, two registries with their own app state.
        assert all(
            a is b
            for a, b in zip(nfs["origin"].verified, nfs["enetstl"].verified)
        )
        assert nfs["origin"].registry is not nfs["enetstl"].registry

    @pytest.mark.parametrize("name", IR_APP_NAMES)
    def test_builds_differ_only_in_charges(self, name):
        nfs, results = run_both(name)
        assert nfs["origin"].returns == nfs["enetstl"].returns
        assert state_of(nfs["origin"]) == state_of(nfs["enetstl"])
        assert results["origin"].n_packets == results["enetstl"].n_packets
        assert improvement(results) > 0.05

    @pytest.mark.parametrize("build", FIG7_BUILDS)
    @pytest.mark.parametrize("name", IR_APP_NAMES)
    def test_interp_and_fused_bit_identical(self, name, build):
        trace = _trace(400, seed=11)
        runs = {}
        for backend in ("interp", "fused"):
            nf = fig7_nfs(name, seed=11, backend=backend)[build]
            XdpPipeline(nf).run(trace)
            runs[backend] = (witness(nf), state_of(nf))
        assert runs["interp"] == runs["fused"]

    def test_charge_table_covers_the_app_kfuncs(self):
        app_kfuncs = (
            {m.name for m in ir_registry(0)}
            - {m.name for m in runnable_registry(0)}
        )
        for build in FIG7_BUILDS:
            assert set(fig7_charges(build, DEFAULT_COSTS)) == app_kfuncs
        with pytest.raises(ValueError):
            fig7_charges("kernel", DEFAULT_COSTS)

    @pytest.mark.parametrize("name", IR_APP_NAMES)
    def test_fleet_chains_stay_uncharged(self, name):
        """The plain registry charges only executed instructions: the
        Fig. 7 costs never leak into the fleets."""
        nf = app_nf(name, backend="fused", seed=3)
        XdpPipeline(nf).run(_trace(200))
        dispatch = DEFAULT_COSTS.xdp_dispatch + DEFAULT_COSTS.packet_parse
        assert nf.rt.cycles.total == (
            200 * dispatch + nf.stats.insn_cycles + nf.stats.check_cycles
        )
        assert nf._fused.inlined_kfuncs >= 1

    def test_average_improvement_in_paper_band(self):
        """Fig. 7: +21.6% average in the paper; we assert 15-30%."""
        results = a.fig7_apps(n_packets=800)
        assert list(results) == list(IR_APP_NAMES)
        imps = [d["improvement"] for d in results.values()]
        assert all(i > 0.05 for i in imps)
        assert 0.15 < sum(imps) / len(imps) < 0.30
