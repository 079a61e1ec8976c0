"""Fig. 1: shared-behavior share of NF execution time (§3)."""

import repro.analysis as a


def test_fig1_behavior_share(run_once, in_band):
    in_band("fig1", run_once(a.fig1_behavior_shares, n_packets=1200))
