"""Exact snapshot of the Fig. 3(d)/(e) sketch sweeps at 200 packets.

Each point's mode, cycles/packet and per-category cycles, plus a
digest of the sketch rows the replay left behind (counters read as
floats, so an int and a float zero digest alike).  Any change to how
the sketching NFs hash, count or charge shows up here as an exact diff.
"""

import hashlib

import pytest

from repro.analysis import experiments
from repro.analysis.experiments import fig3d_nitrosketch, fig3e_countmin

N_PACKETS = 200

#: (x, mode, cycles_per_packet, {category: cycles}, rows digest) per point.
FIG3D = [
    (0.015625, 'PURE_EBPF', 277.75,
     {'FRAMEWORK': 18600, 'MULTIHASH': 2150, 'PARSE': 9000, 'RANDOM': 25800},
     '2f3030df0aa24bd0'),
    (0.015625, 'KERNEL', 150.75,
     {'FRAMEWORK': 18600, 'MULTIHASH': 700, 'PARSE': 9000, 'RANDOM': 1850},
     'b8cc55b037e132eb'),
    (0.015625, 'ENETSTL', 154.43,
     {'FRAMEWORK': 19000, 'MULTIHASH': 868, 'PARSE': 9000, 'RANDOM': 2018},
     'b8cc55b037e132eb'),
    (0.0625, 'PURE_EBPF', 316.02,
     {'FRAMEWORK': 18600, 'MULTIHASH': 9804, 'PARSE': 9000, 'RANDOM': 25800},
     '6f60c6623120b781'),
    (0.0625, 'KERNEL', 164.24,
     {'FRAMEWORK': 18600, 'MULTIHASH': 2688, 'PARSE': 9000, 'RANDOM': 2560},
     'f177202f7c668caa'),
    (0.0625, 'ENETSTL', 171.56,
     {'FRAMEWORK': 19000, 'MULTIHASH': 3220, 'PARSE': 9000, 'RANDOM': 3092},
     'f177202f7c668caa'),
    (0.25, 'PURE_EBPF', 433.41,
     {'FRAMEWORK': 18600, 'MULTIHASH': 33282, 'PARSE': 9000, 'RANDOM': 25800},
     'bbc03fc000d94d14'),
    (0.25, 'KERNEL', 219.34,
     {'FRAMEWORK': 18600, 'MULTIHASH': 10808, 'PARSE': 9000, 'RANDOM': 5460},
     '0ee7898bbc417675'),
    (0.25, 'ENETSTL', 233.66,
     {'FRAMEWORK': 19000, 'MULTIHASH': 12040, 'PARSE': 9000, 'RANDOM': 6692},
     '0ee7898bbc417675'),
    (0.5, 'PURE_EBPF', 610.14,
     {'FRAMEWORK': 18600, 'MULTIHASH': 68628, 'PARSE': 9000, 'RANDOM': 25800},
     'eba0e9515a07dff4'),
    (0.5, 'KERNEL', 297.81,
     {'FRAMEWORK': 18600, 'MULTIHASH': 22372, 'PARSE': 9000, 'RANDOM': 9590},
     '0ae5a5c7d1b435e8'),
    (0.5, 'ENETSTL', 313.74,
     {'FRAMEWORK': 19000, 'MULTIHASH': 23765, 'PARSE': 9000, 'RANDOM': 10983},
     '0ae5a5c7d1b435e8'),
    (1.0, 'PURE_EBPF', 955.0,
     {'FRAMEWORK': 18600, 'MULTIHASH': 137600, 'PARSE': 9000, 'RANDOM': 25800},
     '1548aaf1a49b2040'),
    (1.0, 'KERNEL', 534.92,
     {'FRAMEWORK': 18600, 'MULTIHASH': 44800, 'PARSE': 9000, 'RANDOM': 34584},
     '9c634d2930e173c4'),
    (1.0, 'ENETSTL', 550.92,
     {'FRAMEWORK': 19000, 'MULTIHASH': 46200, 'PARSE': 9000, 'RANDOM': 35984},
     '9c634d2930e173c4'),
]

FIG3E = [
    (1, 'PURE_EBPF', 210.0,
     {'FRAMEWORK': 18600, 'MULTIHASH': 14400, 'PARSE': 9000},
     '665a8023f7b3af18'),
    (1, 'KERNEL', 169.0,
     {'FRAMEWORK': 18600, 'MULTIHASH': 6200, 'PARSE': 9000},
     '3be4274bf82c533b'),
    (1, 'ENETSTL', 175.0,
     {'FRAMEWORK': 19000, 'MULTIHASH': 7000, 'PARSE': 9000},
     '3be4274bf82c533b'),
    (2, 'PURE_EBPF', 282.0,
     {'FRAMEWORK': 18600, 'MULTIHASH': 28800, 'PARSE': 9000},
     '93e5e529da9d5a94'),
    (2, 'KERNEL', 197.0,
     {'FRAMEWORK': 18600, 'MULTIHASH': 11800, 'PARSE': 9000},
     '0b04289136c30ab3'),
    (2, 'ENETSTL', 203.0,
     {'FRAMEWORK': 19000, 'MULTIHASH': 12600, 'PARSE': 9000},
     '0b04289136c30ab3'),
    (4, 'PURE_EBPF', 426.0,
     {'FRAMEWORK': 18600, 'MULTIHASH': 57600, 'PARSE': 9000},
     '0ca25c4321cd5b2e'),
    (4, 'KERNEL', 283.0,
     {'FRAMEWORK': 18600, 'MULTIHASH': 29000, 'PARSE': 9000},
     '0ca25c4321cd5b2e'),
    (4, 'ENETSTL', 289.0,
     {'FRAMEWORK': 19000, 'MULTIHASH': 29800, 'PARSE': 9000},
     '0ca25c4321cd5b2e'),
    (6, 'PURE_EBPF', 570.0,
     {'FRAMEWORK': 18600, 'MULTIHASH': 86400, 'PARSE': 9000},
     '50a104991b0ff097'),
    (6, 'KERNEL', 347.0,
     {'FRAMEWORK': 18600, 'MULTIHASH': 41800, 'PARSE': 9000},
     '50a104991b0ff097'),
    (6, 'ENETSTL', 353.0,
     {'FRAMEWORK': 19000, 'MULTIHASH': 42600, 'PARSE': 9000},
     '50a104991b0ff097'),
    (8, 'PURE_EBPF', 714.0,
     {'FRAMEWORK': 18600, 'MULTIHASH': 115200, 'PARSE': 9000},
     'ff36f3c9e15ec3e8'),
    (8, 'KERNEL', 411.0,
     {'FRAMEWORK': 18600, 'MULTIHASH': 54600, 'PARSE': 9000},
     'ff36f3c9e15ec3e8'),
    (8, 'ENETSTL', 417.0,
     {'FRAMEWORK': 19000, 'MULTIHASH': 55400, 'PARSE': 9000},
     'ff36f3c9e15ec3e8'),
]


def _rows_digest(rows):
    flat = repr([[float(v) for v in row] for row in rows])
    return hashlib.sha256(flat.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "fn, expected",
    [(fig3d_nitrosketch, FIG3D), (fig3e_countmin, FIG3E)],
    ids=["fig3d", "fig3e"],
)
def test_sketch_sweep_snapshot(monkeypatch, fn, expected):
    seen = []
    measure = experiments._measure

    def recording(nf, trace, *args, **kwargs):
        result = measure(nf, trace, *args, **kwargs)
        cats = {cat.name: cyc for cat, cyc in result.by_category.items()}
        seen.append((cats, _rows_digest(nf.rows)))
        return result

    monkeypatch.setattr(experiments, "_measure", recording)
    sweep = fn(n_packets=N_PACKETS)
    got = [
        (p.x, p.mode.name, p.cycles_per_packet, cats, digest)
        for p, (cats, digest) in zip(sweep.points, seen)
    ]
    assert len(seen) == len(sweep.points)
    assert got == expected
