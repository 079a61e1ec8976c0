"""Fig. 6: rational abstraction — high-level vs per-instruction kfuncs."""

import repro.analysis as a


def test_fig6_interfaces(run_once, in_band):
    comparison = run_once(a.fig6_interface_comparison)
    in_band("fig6", comparison)
    for name, data in comparison.items():
        assert data["low"] > data["high"], name
