"""The subtask plan of every experiment, pinned.

``run_experiments`` splits each experiment into ``(function name,
kwargs)`` subtasks.  The plan fixes every ``subtask_key``, so a result
cache written by an earlier version stays valid only while it holds;
it also fixes how many subtasks a paper check runs, and in which order.
A change to how experiments are declared must leave it as it is.
"""

import pytest

from repro.analysis.parallel import EXPERIMENTS

PLAN_AT_200 = {
    "fig3a": [
        ("fig3a_skiplist_lookup", {"loads": (1024,), "n_packets": 200}),
        ("fig3a_skiplist_lookup", {"loads": (4096,), "n_packets": 200}),
        ("fig3a_skiplist_lookup", {"loads": (16384,), "n_packets": 200}),
    ],
    "fig3b": [
        ("fig3b_skiplist_update_delete", {"loads": (1024,), "n_packets": 200}),
        ("fig3b_skiplist_update_delete", {"loads": (4096,), "n_packets": 200}),
        ("fig3b_skiplist_update_delete",
         {"loads": (16384,), "n_packets": 200}),
    ],
    "fig3c": [
        ("fig3c_cuckoo_switch", {"n_packets": 200}),
    ],
    "fig3d": [
        ("fig3d_nitrosketch", {"probs": (0.015625,), "n_packets": 200}),
        ("fig3d_nitrosketch", {"probs": (0.0625,), "n_packets": 200}),
        ("fig3d_nitrosketch", {"probs": (0.25,), "n_packets": 200}),
        ("fig3d_nitrosketch", {"probs": (0.5,), "n_packets": 200}),
        ("fig3d_nitrosketch", {"probs": (1.0,), "n_packets": 200}),
    ],
    "fig3e": [
        ("fig3e_countmin", {"depths": (1,), "n_packets": 200}),
        ("fig3e_countmin", {"depths": (2,), "n_packets": 200}),
        ("fig3e_countmin", {"depths": (4,), "n_packets": 200}),
        ("fig3e_countmin", {"depths": (6,), "n_packets": 200}),
        ("fig3e_countmin", {"depths": (8,), "n_packets": 200}),
    ],
    "fig3f": [
        ("fig3f_timewheel", {"tick_ns_values": (250,), "n_packets": 200}),
        ("fig3f_timewheel", {"tick_ns_values": (500,), "n_packets": 200}),
        ("fig3f_timewheel", {"tick_ns_values": (1000,), "n_packets": 200}),
        ("fig3f_timewheel", {"tick_ns_values": (2000,), "n_packets": 200}),
        ("fig3f_timewheel", {"tick_ns_values": (4000,), "n_packets": 200}),
    ],
    "fig3g": [
        ("fig3g_cuckoo_filter", {"n_packets": 200}),
    ],
    "fig3h": [
        ("fig3h_eiffel", {"levels": (1,), "n_packets": 200}),
        ("fig3h_eiffel", {"levels": (2,), "n_packets": 200}),
        ("fig3h_eiffel", {"levels": (3,), "n_packets": 200}),
        ("fig3h_eiffel", {"levels": (4,), "n_packets": 200}),
    ],
    "efd": [
        ("other_nf", {"name": "efd", "n_packets": 200}),
    ],
    "tss": [
        ("other_nf", {"name": "tss", "n_packets": 200}),
    ],
    "heavykeeper": [
        ("other_nf", {"name": "heavykeeper", "n_packets": 200}),
    ],
    "vbf": [
        ("other_nf", {"name": "vbf", "n_packets": 200}),
    ],
    "fig45": [
        ("fig4_fig5_latency", {"nfs": ("kv_skiplist",), "n_packets": 200}),
        ("fig4_fig5_latency", {"nfs": ("cuckoo_switch",), "n_packets": 200}),
        ("fig4_fig5_latency", {"nfs": ("countmin",), "n_packets": 200}),
        ("fig4_fig5_latency", {"nfs": ("nitrosketch",), "n_packets": 200}),
        ("fig4_fig5_latency", {"nfs": ("cuckoo_filter",), "n_packets": 200}),
        ("fig4_fig5_latency", {"nfs": ("timewheel",), "n_packets": 200}),
        ("fig4_fig5_latency", {"nfs": ("eiffel",), "n_packets": 200}),
        ("fig4_fig5_latency", {"nfs": ("efd",), "n_packets": 200}),
        ("fig4_fig5_latency", {"nfs": ("tss",), "n_packets": 200}),
        ("fig4_fig5_latency", {"nfs": ("heavykeeper",), "n_packets": 200}),
        ("fig4_fig5_latency", {"nfs": ("vbf",), "n_packets": 200}),
    ],
    "fig1": [
        ("fig1_behavior_shares", {"nfs": ("eiffel",), "n_packets": 200}),
        ("fig1_behavior_shares", {"nfs": ("vbf",), "n_packets": 200}),
        ("fig1_behavior_shares", {"nfs": ("countmin",), "n_packets": 200}),
        ("fig1_behavior_shares",
         {"nfs": ("cuckoo_switch",), "n_packets": 200}),
        ("fig1_behavior_shares", {"nfs": ("efd",), "n_packets": 200}),
        ("fig1_behavior_shares", {"nfs": ("tss",), "n_packets": 200}),
        ("fig1_behavior_shares", {"nfs": ("timewheel",), "n_packets": 200}),
        ("fig1_behavior_shares", {"nfs": ("nitrosketch",), "n_packets": 200}),
        ("fig1_behavior_shares", {"nfs": ("heavykeeper",), "n_packets": 200}),
        ("fig1_behavior_shares",
         {"nfs": ("cuckoo_filter",), "n_packets": 200}),
    ],
    "fig7": [
        ("fig7_apps", {"apps": ("katran",), "n_packets": 200}),
        ("fig7_apps", {"apps": ("rakelimit",), "n_packets": 200}),
        ("fig7_apps", {"apps": ("polycube",), "n_packets": 200}),
        ("fig7_apps", {"apps": ("sketches",), "n_packets": 200}),
    ],
    "table1": [
        ("measured_degradations", {"n_packets": 200}),
    ],
    "table2": [
        ("table2_results", {}),
    ],
    "fig6": [
        ("fig6_interface_comparison", {}),
    ],
    "multicore": [
        ("multicore_steering", {"policies": ("rss",), "n_packets": 200}),
        ("multicore_steering", {"policies": ("rekey",), "n_packets": 200}),
        ("multicore_steering", {"policies": ("ntuple",), "n_packets": 200}),
    ],
}
PLAN_AT_2000 = {
    "fig3a": [
        ("fig3a_skiplist_lookup", {"loads": (1024,), "n_packets": 2000}),
        ("fig3a_skiplist_lookup", {"loads": (4096,), "n_packets": 2000}),
        ("fig3a_skiplist_lookup", {"loads": (16384,), "n_packets": 2000}),
    ],
    "fig3b": [
        ("fig3b_skiplist_update_delete",
         {"loads": (1024,), "n_packets": 2000}),
        ("fig3b_skiplist_update_delete",
         {"loads": (4096,), "n_packets": 2000}),
        ("fig3b_skiplist_update_delete",
         {"loads": (16384,), "n_packets": 2000}),
    ],
    "fig3c": [
        ("fig3c_cuckoo_switch", {"n_packets": 2000}),
    ],
    "fig3d": [
        ("fig3d_nitrosketch", {"probs": (0.015625,), "n_packets": 2000}),
        ("fig3d_nitrosketch", {"probs": (0.0625,), "n_packets": 2000}),
        ("fig3d_nitrosketch", {"probs": (0.25,), "n_packets": 2000}),
        ("fig3d_nitrosketch", {"probs": (0.5,), "n_packets": 2000}),
        ("fig3d_nitrosketch", {"probs": (1.0,), "n_packets": 2000}),
    ],
    "fig3e": [
        ("fig3e_countmin", {"depths": (1,), "n_packets": 2000}),
        ("fig3e_countmin", {"depths": (2,), "n_packets": 2000}),
        ("fig3e_countmin", {"depths": (4,), "n_packets": 2000}),
        ("fig3e_countmin", {"depths": (6,), "n_packets": 2000}),
        ("fig3e_countmin", {"depths": (8,), "n_packets": 2000}),
    ],
    "fig3f": [
        ("fig3f_timewheel", {"tick_ns_values": (250,), "n_packets": 2000}),
        ("fig3f_timewheel", {"tick_ns_values": (500,), "n_packets": 2000}),
        ("fig3f_timewheel", {"tick_ns_values": (1000,), "n_packets": 2000}),
        ("fig3f_timewheel", {"tick_ns_values": (2000,), "n_packets": 2000}),
        ("fig3f_timewheel", {"tick_ns_values": (4000,), "n_packets": 2000}),
    ],
    "fig3g": [
        ("fig3g_cuckoo_filter", {"n_packets": 2000}),
    ],
    "fig3h": [
        ("fig3h_eiffel", {"levels": (1,), "n_packets": 2000}),
        ("fig3h_eiffel", {"levels": (2,), "n_packets": 2000}),
        ("fig3h_eiffel", {"levels": (3,), "n_packets": 2000}),
        ("fig3h_eiffel", {"levels": (4,), "n_packets": 2000}),
    ],
    "efd": [
        ("other_nf", {"name": "efd", "n_packets": 2000}),
    ],
    "tss": [
        ("other_nf", {"name": "tss", "n_packets": 2000}),
    ],
    "heavykeeper": [
        ("other_nf", {"name": "heavykeeper", "n_packets": 2000}),
    ],
    "vbf": [
        ("other_nf", {"name": "vbf", "n_packets": 2000}),
    ],
    "fig45": [
        ("fig4_fig5_latency", {"nfs": ("kv_skiplist",), "n_packets": 500}),
        ("fig4_fig5_latency", {"nfs": ("cuckoo_switch",), "n_packets": 500}),
        ("fig4_fig5_latency", {"nfs": ("countmin",), "n_packets": 500}),
        ("fig4_fig5_latency", {"nfs": ("nitrosketch",), "n_packets": 500}),
        ("fig4_fig5_latency", {"nfs": ("cuckoo_filter",), "n_packets": 500}),
        ("fig4_fig5_latency", {"nfs": ("timewheel",), "n_packets": 500}),
        ("fig4_fig5_latency", {"nfs": ("eiffel",), "n_packets": 500}),
        ("fig4_fig5_latency", {"nfs": ("efd",), "n_packets": 500}),
        ("fig4_fig5_latency", {"nfs": ("tss",), "n_packets": 500}),
        ("fig4_fig5_latency", {"nfs": ("heavykeeper",), "n_packets": 500}),
        ("fig4_fig5_latency", {"nfs": ("vbf",), "n_packets": 500}),
    ],
    "fig1": [
        ("fig1_behavior_shares", {"nfs": ("eiffel",), "n_packets": 2000}),
        ("fig1_behavior_shares", {"nfs": ("vbf",), "n_packets": 2000}),
        ("fig1_behavior_shares", {"nfs": ("countmin",), "n_packets": 2000}),
        ("fig1_behavior_shares",
         {"nfs": ("cuckoo_switch",), "n_packets": 2000}),
        ("fig1_behavior_shares", {"nfs": ("efd",), "n_packets": 2000}),
        ("fig1_behavior_shares", {"nfs": ("tss",), "n_packets": 2000}),
        ("fig1_behavior_shares", {"nfs": ("timewheel",), "n_packets": 2000}),
        ("fig1_behavior_shares", {"nfs": ("nitrosketch",), "n_packets": 2000}),
        ("fig1_behavior_shares", {"nfs": ("heavykeeper",), "n_packets": 2000}),
        ("fig1_behavior_shares",
         {"nfs": ("cuckoo_filter",), "n_packets": 2000}),
    ],
    "fig7": [
        ("fig7_apps", {"apps": ("katran",), "n_packets": 2000}),
        ("fig7_apps", {"apps": ("rakelimit",), "n_packets": 2000}),
        ("fig7_apps", {"apps": ("polycube",), "n_packets": 2000}),
        ("fig7_apps", {"apps": ("sketches",), "n_packets": 2000}),
    ],
    "table1": [
        ("measured_degradations", {"n_packets": 1000}),
    ],
    "table2": [
        ("table2_results", {}),
    ],
    "fig6": [
        ("fig6_interface_comparison", {}),
    ],
    "multicore": [
        ("multicore_steering", {"policies": ("rss",), "n_packets": 2000}),
        ("multicore_steering", {"policies": ("rekey",), "n_packets": 2000}),
        ("multicore_steering", {"policies": ("ntuple",), "n_packets": 2000}),
    ],
}


@pytest.mark.parametrize("n_packets, expected", [
    (200, PLAN_AT_200),
    (2000, PLAN_AT_2000),
])
def test_subtask_plan_pinned(n_packets, expected):
    assert set(EXPERIMENTS) == set(expected)
    for name, subtasks in expected.items():
        plan = EXPERIMENTS[name].split(n_packets)
        assert plan == subtasks, name
        # Key order inside each kwargs dict too, as error messages
        # print it.
        assert repr(plan) == repr(subtasks), name
