"""Table 2: per-component microbenchmarks (§6.4)."""

import repro.analysis as a


def test_table2_components(run_once, in_band):
    run_once(a.table2_results)
    imps = a.table2_improvements()
    in_band("table2", imps)
    # The biggest wins are the random pools (helper-call elimination).
    assert imps["random_pool"] == max(imps.values())
