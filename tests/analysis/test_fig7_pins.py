"""Exact snapshot of ``fig7_apps`` at 200 packets (the paper-check size).

Each app's cycles/packet and verdict counts per build.  Any change to
the app chains, their kfunc impls or the Fig. 7 charge table
(``repro.apps.ir.fig7_charges``) shows up here as an exact diff.
"""

import pytest

from repro.analysis import experiments

#: (app, build, cycles_per_packet, actions) per replay, in run order.
FIG7 = [
    ("katran", "origin", 526.375, {"XDP_REDIRECT": 109, "XDP_TX": 91}),
    ("katran", "enetstl", 449.675, {"XDP_REDIRECT": 109, "XDP_TX": 91}),
    ("rakelimit", "origin", 627.0, {"XDP_PASS": 200}),
    ("rakelimit", "enetstl", 496.0, {"XDP_PASS": 200}),
    ("polycube", "origin", 585.75, {"XDP_PASS": 200}),
    ("polycube", "enetstl", 479.05, {"XDP_PASS": 200}),
    ("sketches", "origin", 1423.0, {"XDP_PASS": 200}),
    ("sketches", "enetstl", 1082.0, {"XDP_PASS": 200}),
]


def test_fig7_snapshot(monkeypatch):
    runs = []
    measure = experiments._measure

    def spy(nf, trace, *args, **kwargs):
        # One replay of the whole trace per build, no warm-up: the
        # paper-check benchmark counts exactly these packets.
        assert not args and not kwargs
        result = measure(nf, trace)
        runs.append((nf.rt.mode.name, result))
        return result

    monkeypatch.setattr(experiments, "_measure", spy)
    out = experiments.fig7_apps(n_packets=200)
    assert [(r.cycles_per_packet, r.actions) for _, r in runs] == [
        (cycles, actions) for _, _, cycles, actions in FIG7
    ]
    assert [mode for mode, _ in runs] == ["PURE_EBPF", "ENETSTL"] * 4
    assert list(out) == [app for app, build, _, _ in FIG7 if build == "origin"]
    assert all(result.n_packets == 200 for _, result in runs)
    for app, data in out.items():
        origin, enetstl = (row[2] for row in FIG7 if row[0] == app)
        assert data["improvement"] == pytest.approx(origin / enetstl - 1)
