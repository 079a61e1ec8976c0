"""Fig. 3(a)-(h): per-NF throughput sweeps (§6.2).

Each bench runs one subfigure's sweep at full size and asserts its
``TARGETS`` bands.
"""

import pytest

import repro.analysis as a

#: Subfigure -> (sweep, packets per point).
SWEEPS = {
    "fig3a": (a.fig3a_skiplist_lookup, 1500),
    "fig3b": (a.fig3b_skiplist_update_delete, 1500),
    "fig3c": (a.fig3c_cuckoo_switch, 2000),
    "fig3d": (a.fig3d_nitrosketch, 2500),
    "fig3e": (a.fig3e_countmin, 2500),
    "fig3f": (a.fig3f_timewheel, 2000),
    "fig3g": (a.fig3g_cuckoo_filter, 2000),
    "fig3h": (a.fig3h_eiffel, 2000),
}


@pytest.mark.parametrize("name", SWEEPS)
def test_fig3(name, run_once, in_band):
    sweep, n_packets = SWEEPS[name]
    in_band(name, run_once(sweep, n_packets=n_packets))
