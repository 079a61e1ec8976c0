"""Fig. 7: eNetSTL integrated into real-world eBPF projects (§6.5)."""

import repro.analysis as a


def test_fig7_apps(run_once, in_band):
    in_band("fig7", run_once(a.fig7_apps, n_packets=2500))
