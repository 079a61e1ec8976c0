"""Tests for the experiment harness: structure, math, and paper bands.

Band assertions check ``TARGETS`` at small packet counts
(deterministic cost model, so the ratios are stable at any trace
length).
"""

import pytest

import repro.analysis as a
from repro.analysis.experiments import OTHER_NFS
from repro.analysis.results import ModePoint, Sweep
from repro.ebpf.cost_model import ExecMode


class TestSweepMath:
    def make_sweep(self):
        s = Sweep("t", "x")
        for x, (e, k, n) in {1: (200, 100, 110), 2: (400, 150, 160)}.items():
            s.add(ModePoint(x, ExecMode.PURE_EBPF, e, 1e9 / e, 0))
            s.add(ModePoint(x, ExecMode.KERNEL, k, 1e9 / k, 0))
            s.add(ModePoint(x, ExecMode.ENETSTL, n, 1e9 / n, 0))
        return s

    def test_improvements(self):
        s = self.make_sweep()
        imps = s.improvements()
        assert imps[1] == pytest.approx(200 / 110 - 1)
        assert imps[2] == pytest.approx(400 / 160 - 1)
        assert s.max_improvement() == pytest.approx(400 / 160 - 1)

    def test_gap(self):
        s = self.make_sweep()
        gaps = s.gaps_to_kernel()
        assert gaps[1] == pytest.approx(1 - 100 / 110)
        assert s.avg_gap_to_kernel() > 0

    def test_series_sorted(self):
        s = self.make_sweep()
        xs = [p.x for p in s.series(ExecMode.KERNEL)]
        assert xs == sorted(xs)

    def test_missing_mode_raises(self):
        s = Sweep("t", "x")
        s.add(ModePoint(1, ExecMode.KERNEL, 10, 1e8, 0))
        with pytest.raises(ValueError):
            s.avg_improvement()


class TestPaperBands:
    """Every headline result meets its ``TARGETS`` bands.  A shape
    claim that no target states is asserted once: here, or in the
    benchmark that alone checks it."""

    def test_fig3e_countmin(self, in_band):
        s = a.fig3e_countmin(n_packets=400)
        in_band("fig3e", s)
        assert 0.60 <= s.max_improvement() <= 0.82      # paper 70.9% @ 8
        # Improvement grows with the number of hash functions.
        imps = s.improvements()
        xs = sorted(imps)
        assert all(imps[xs[i]] <= imps[xs[i + 1]] for i in range(len(xs) - 1))

    def test_fig3c_cuckoo_switch(self, in_band):
        s = a.fig3c_cuckoo_switch(n_packets=400)
        in_band("fig3c", s)
        assert 0.28 <= s.max_improvement() <= 0.40      # paper 33.08% @ full

    def test_fig3d_nitrosketch(self, in_band):
        in_band("fig3d", a.fig3d_nitrosketch(n_packets=500))

    def test_fig3g_cuckoo_filter(self, in_band):
        in_band("fig3g", a.fig3g_cuckoo_filter(n_packets=400))

    def test_fig3f_timewheel(self, in_band):
        in_band("fig3f", a.fig3f_timewheel(n_packets=400))

    def test_fig3h_eiffel(self, in_band):
        s = a.fig3h_eiffel(n_packets=400)
        in_band("fig3h", s)
        imps = s.improvements()
        assert imps[4] > imps[1]   # grows with levels

    @pytest.mark.parametrize("nf", OTHER_NFS)
    def test_other_nfs(self, nf, in_band):
        in_band(nf, a.other_nf(nf, n_packets=400))

    def test_fig3a_skiplist_lookup_gap(self, in_band):
        s = a.fig3a_skiplist_lookup(loads=(1024, 4096), n_packets=300)
        in_band("fig3a", s)
        # No eBPF series exists: the P1 point.
        assert not s.series(ExecMode.PURE_EBPF)

    def test_fig3b_skiplist_update_delete_gap(self, in_band):
        in_band("fig3b", a.fig3b_skiplist_update_delete(
            loads=(1024, 4096), n_packets=300))

    def test_fig1_shares_in_band(self, in_band):
        shares = a.fig1_behavior_shares(n_packets=300)
        in_band("fig1", shares)
        assert len(shares) == 10

    def test_table2_improvements_in_band(self, in_band):
        in_band("table2", a.table2_improvements())

    def test_fig6_degradation_in_band(self, in_band):
        in_band("fig6", a.fig6_interface_comparison())

    def test_fig7_apps_in_band(self, in_band):
        results = a.fig7_apps(n_packets=600)
        in_band("fig7", results)
        imps = [d["improvement"] for d in results.values()]
        assert len(imps) == 4
        assert all(i > 0.05 for i in imps)

    def test_fig45_latency_shapes(self):
        points = a.fig4_fig5_latency(nfs=("countmin", "eiffel"), n_packets=80)
        by_nf = {}
        for p in points:
            by_nf.setdefault(p.nf, {})[p.mode] = p
        for nf, modes in by_nf.items():
            ebpf = modes[ExecMode.PURE_EBPF]
            enet = modes[ExecMode.ENETSTL]
            # eNetSTL never increases latency and reduces per-packet time.
            assert enet.avg_latency_us <= ebpf.avg_latency_us + 0.01
            assert enet.proc_ns < ebpf.proc_ns
            # Latency dominated by the wire at 1kpps: same ballpark.
            assert enet.avg_latency_us > 20.0


class TestSurvey:
    def test_summary_counts_match_paper(self):
        s = a.survey_summary()
        assert s["total"] == 35
        assert s["infeasible"] == 3
        assert s["degraded"] == 28
        assert s["ok"] == 4

    def test_categories_all_populated(self):
        by_cat = a.works_by_category()
        assert len(by_cat) == 7
        assert all(by_cat.values())

    def test_evaluated_and_extension_nfs_built(self):
        built = {w.implemented_as for w in a.SURVEY if w.implemented_as}
        from repro.nfs import ALL_NFS, EXTENSION_NFS

        # The paper's 11 evaluated NFs plus three extension works from
        # the survey ([8] Bloom, [27] d-ary cuckoo, [23] Maglev); the
        # LRU cache extension is from §4.5, not the survey.
        assert set(ALL_NFS) <= built
        assert built == set(ALL_NFS) | {
            "bloom", "dary_cuckoo", "maglev", "elastic", "sketchvisor",
            "counting_bloom", "hypercuts",
        }
        assert set(EXTENSION_NFS) == {
            "bloom", "dary_cuckoo", "lru_cache", "maglev", "elastic",
            "sketchvisor", "counting_bloom", "hypercuts", "flow_monitor",
        }

    def test_measured_degradations_overlap_paper_ranges(self):
        measured = a.measured_degradations(n_packets=300)
        assert len(measured) == 10   # skip list has no eBPF variant
        # All degradations in the paper's global 14.8%-49.2% envelope
        # (we allow a slightly wider band).
        assert all(0.10 <= d <= 0.55 for d in measured.values()), measured


class TestReportRendering:
    def test_render_sweep(self):
        text = a.render_sweep(a.fig3e_countmin(n_packets=200))
        assert "Mpps" in text and "eNetSTL over eBPF" in text

    def test_render_latency(self):
        text = a.render_latency(a.fig4_fig5_latency(nfs=("countmin",), n_packets=50))
        assert "latency" in text

    def test_render_behavior_shares(self):
        text = a.render_behavior_shares(a.fig1_behavior_shares(n_packets=150))
        assert "20.6%" in text

    def test_render_components(self):
        text = a.render_components(a.table2_results())
        assert "ffs" in text and "random_pool" in text

    def test_render_interfaces(self):
        text = a.render_interfaces(a.fig6_interface_comparison())
        assert "COMP" in text and "HASH" in text

    def test_render_apps(self):
        text = a.render_apps(a.fig7_apps(n_packets=300))
        assert "katran" in text and "average improvement" in text

    def test_render_table1(self):
        text = a.render_table1({"countmin": 0.3})
        assert "35 works" in text and "CuckooSwitch" in text
