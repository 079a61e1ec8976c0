"""Exact snapshot of the Fig. 3(c)/(g) cuckoo sweeps at default arguments.

Each point"s mode, cycles/packet and resident load factor, recorded
before the sweeps built one table per load factor and copied it per
mode.  Any change to how the tables are filled, copied or probed shows
up here as an exact diff.
"""

import pytest

from repro.analysis.experiments import fig3c_cuckoo_switch, fig3g_cuckoo_filter

N_PACKETS = 60

#: (load factor, mode, cycles_per_packet, extra["load"]) per point.
FIG3C = [
    (0.2, "PURE_EBPF", 317.1666666666667, 0.199951171875),
    (0.2, "KERNEL", 247.5, 0.199951171875),
    (0.2, "ENETSTL", 257.5, 0.199951171875),
    (0.4, "PURE_EBPF", 345.0833333333333, 0.39996337890625),
    (0.4, "KERNEL", 264.25, 0.39996337890625),
    (0.4, "ENETSTL", 274.25, 0.39996337890625),
    (0.6, "PURE_EBPF", 391.3333333333333, 0.5999755859375),
    (0.6, "KERNEL", 293.2, 0.5999755859375),
    (0.6, "ENETSTL", 303.4, 0.5999755859375),
    (0.8, "PURE_EBPF", 443.4166666666667, 0.79998779296875),
    (0.8, "KERNEL", 326.45, 0.79998779296875),
    (0.8, "ENETSTL", 336.98333333333335, 0.79998779296875),
    (0.95, "PURE_EBPF", 478.4166666666667, 0.94866943359375),
    (0.95, "KERNEL", 349.05, 0.94866943359375),
    (0.95, "ENETSTL", 359.85, 0.94866943359375),
]

FIG3G = [
    (0.2, "PURE_EBPF", 285.7, 0.199951171875),
    (0.2, "KERNEL", 220.5, 0.199951171875),
    (0.2, "ENETSTL", 226.5, 0.199951171875),
    (0.4, "PURE_EBPF", 301.9, 0.39996337890625),
    (0.4, "KERNEL", 229.5, 0.39996337890625),
    (0.4, "ENETSTL", 235.5, 0.39996337890625),
    (0.6, "PURE_EBPF", 334.75, 0.5999755859375),
    (0.6, "KERNEL", 249.15, 0.5999755859375),
    (0.6, "ENETSTL", 255.15, 0.5999755859375),
    (0.8, "PURE_EBPF", 368.95, 0.79998779296875),
    (0.8, "KERNEL", 273.4, 0.79998779296875),
    (0.8, "ENETSTL", 279.4, 0.79998779296875),
    (0.95, "PURE_EBPF", 396.4, 0.949951171875),
    (0.95, "KERNEL", 292.5, 0.949951171875),
    (0.95, "ENETSTL", 298.5, 0.949951171875),
]


def _snapshot(sweep):
    return [
        (p.x, p.mode.name, p.cycles_per_packet, p.extra["load"])
        for p in sweep.points
    ]


@pytest.mark.parametrize(
    "fn, expected",
    [(fig3c_cuckoo_switch, FIG3C), (fig3g_cuckoo_filter, FIG3G)],
    ids=["fig3c", "fig3g"],
)
def test_cuckoo_sweep_snapshot(fn, expected):
    assert _snapshot(fn(n_packets=N_PACKETS)) == expected
