"""Tests for the paper-target checker — the reproduction's own gate."""

import pytest

from repro.analysis.paper_targets import (
    CheckResult,
    SWEEP_RUNNERS,
    TARGETS,
    Target,
    check_all,
    render_check,
)


#: Every headline metric's measured value from ``check_all(n_packets=250)``,
#: pinned exactly: the simulator is deterministic, so a change to how
#: any experiment builds its tables or replays its traces that moves a
#: number fails here with a diff, not only when it leaves a band.
MEASURED_AT_250 = [
    ("fig3a skiplist lookup", "kernel gap", 0.08078145864659565),
    ("fig3b skiplist upd/del", "kernel gap", 0.08698127476424844),
    ("fig3c cuckoo switch", "avg improvement", 0.2866617603834712),
    ("fig3c cuckoo switch", "kernel gap", 0.03389933369412146),
    ("fig3d nitrosketch", "avg improvement", 0.8343445739556167),
    ("fig3d nitrosketch", "kernel gap", 0.041908957840958785),
    ("fig3e count-min", "avg improvement", 0.47803441969944716),
    ("fig3e count-min", "kernel gap", 0.023197853310840722),
    ("fig3f time wheel", "avg improvement", 0.35003289249833686),
    ("fig3f time wheel", "kernel gap", 0.046036295371636296),
    ("fig3g cuckoo filter", "avg improvement", 0.30104106083490756),
    ("fig3g cuckoo filter", "kernel gap", 0.02352496737984875),
    ("fig3h eiffel", "avg improvement", 0.16292076260200472),
    ("fig3h eiffel", "kernel gap", 0.034970745179072144),
    ("efd", "avg improvement", 0.48258706467661683),
    ("efd", "kernel gap", 0.029850746268656803),
    ("tss", "avg improvement", 0.27413127413127425),
    ("tss", "kernel gap", 0.007722007722007818),
    ("heavykeeper", "avg improvement", 0.26751100211643775),
    ("heavykeeper", "kernel gap", 0.025430846239123728),
    ("vbf", "avg improvement", 0.1556603773584906),
    ("vbf", "kernel gap", 0.037735849056603765),
    ("fig1", "min share", 0.2814814814814815),
    ("fig1", "max share", 0.676056338028169),
    ("table2", "min speedup", 0.7777777777777777),
    ("table2", "max speedup", 5.176470588235294),
    ("fig6", "COMP degradation", 0.7083333333333333),
    ("fig6", "HASH degradation", 0.6002886002886003),
    ("fig7", "avg improvement", 0.25037808895013136),
    ("table1", "infeasible works", 0.08571428571428572),
]


class TestTarget:
    def test_check_inside_band(self):
        t = Target("x", "m", 0.5, 0.4, 0.6)
        assert t.check(0.5).ok
        assert t.check(0.4).ok and t.check(0.6).ok
        assert not t.check(0.39).ok
        assert not t.check(0.61).ok

    def test_describe(self):
        result = Target("x", "m", 0.5, 0.4, 0.6).check(0.55)
        text = result.describe()
        assert "PASS" in text and "55" in text

    def test_targets_cover_every_sweep(self):
        assert set(TARGETS) == set(SWEEP_RUNNERS)

    def test_bands_contain_paper_values(self):
        """Our acceptance bands must be honest: each contains (or is
        adjacent to) the paper's own value."""
        for targets in TARGETS.values():
            for t in targets:
                if t.metric == "avg improvement":
                    assert t.lo <= t.paper_value <= t.hi, t


class TestCheckAll:
    @pytest.fixture(scope="class")
    def results(self):
        return check_all(n_packets=250)

    def test_all_headline_metrics_pass(self, results):
        failing = [r.describe() for r in results if not r.ok]
        assert not failing, "\n".join(failing)

    def test_coverage(self, results):
        experiments = {r.target.experiment for r in results}
        # Every figure/table with a quantitative headline is covered.
        for expected in ("fig3e count-min", "fig1", "table2", "fig6",
                         "fig7", "table1"):
            assert any(expected in e for e in experiments), expected
        assert len(results) == 30

    def test_render(self, results):
        text = render_check(results)
        assert "30/30" in text.splitlines()[-1]

    def test_measured_values_pinned(self, results):
        measured = [
            (r.target.experiment, r.target.metric, r.measured) for r in results
        ]
        assert measured == MEASURED_AT_250
