"""Per-category cycle pins for every charge site of the eNetSTL library.

Every NF class :mod:`repro.nfs` exports is replayed on one fixed trace
in each mode it supports, through both replay paths: the batched one
(``XdpPipeline.run``, which hands ``process_batch`` whole batches) and
the per-packet one (``measure_latency=True``).  Both must charge the
cycles pinned here, category by category.  Table 2, Fig. 6 and Fig. 7
(per build and per category) are pinned the same way.  A charge that
moves between categories, which Fig. 1's behaviour shares read, fails
here even where a cycles-per-packet pin would not.
"""

import inspect

import pytest

import repro.nfs as nfs
from repro.analysis.components import fig6_interface_comparison, table2_results
from repro.analysis.experiments import (
    _fig7_trace,
    _heavy_nf,
    make_rules_for_flows,
)
from repro.apps.ir import fig7_nfs
from repro.ebpf.cost_model import ExecMode
from repro.ebpf.runtime import BpfRuntime
from repro.net.flowgen import FlowGenerator
from repro.net.xdp import XdpPipeline

SEED = 12
N_PACKETS = 300

FG = FlowGenerator(n_flows=512, seed=SEED)
TRACE = FG.trace(N_PACKETS, inter_arrival_ns=1000)
KEYS = [f.key_int for f in FG.flows]


def _populated(cls, keys=KEYS[::2], **kw):
    """A ``cls`` NF holding every other flow: the trace hits and misses."""

    def build(rt):
        nf = cls(rt, **kw)
        nf.populate(keys)
        return nf

    return build


#: Case id -> (class, ``build(rt)``).  The Fig. 3/4/5 NFs are built as
#: the experiments build them; the extensions with their defaults.
CASES = {
    "countmin": (nfs.CountMinNF, lambda rt: _heavy_nf("countmin", rt, FG)),
    "countmin-crc": (nfs.CountMinNF, lambda rt: nfs.CountMinNF(rt, depth=2)),
    "countmin-degrade": (
        nfs.CountMinNF,
        lambda rt: nfs.CountMinNF(
            rt, depth=4, degrade=nfs.SketchDegradation(threshold=100)
        ),
    ),
    "nitrosketch": (
        nfs.NitroSketchNF, lambda rt: _heavy_nf("nitrosketch", rt, FG)
    ),
    "nitrosketch-p4": (
        nfs.NitroSketchNF, lambda rt: nfs.NitroSketchNF(rt, update_prob=0.25)
    ),
    "cuckoo_switch": (
        nfs.CuckooSwitchNF, lambda rt: _heavy_nf("cuckoo_switch", rt, FG)
    ),
    "cuckoo_filter": (
        nfs.CuckooFilterNF, lambda rt: _heavy_nf("cuckoo_filter", rt, FG)
    ),
    "timewheel": (nfs.TimeWheelNF, lambda rt: _heavy_nf("timewheel", rt, FG)),
    "eiffel": (nfs.EiffelNF, lambda rt: _heavy_nf("eiffel", rt, FG)),
    "efd": (nfs.EfdLoadBalancerNF, lambda rt: _heavy_nf("efd", rt, FG)),
    "tss": (nfs.TssClassifierNF, lambda rt: _heavy_nf("tss", rt, FG)),
    "heavykeeper": (
        nfs.HeavyKeeperNF, lambda rt: _heavy_nf("heavykeeper", rt, FG)
    ),
    "vbf": (nfs.VbfNF, lambda rt: _heavy_nf("vbf", rt, FG)),
    "kv_skiplist": (nfs.SkipListKV, lambda rt: _heavy_nf("kv_skiplist", rt, FG)),
    "bloom": (nfs.BloomFilterNF, _populated(nfs.BloomFilterNF)),
    "counting_bloom": (nfs.CountingBloomNF, _populated(nfs.CountingBloomNF)),
    "dary_cuckoo": (nfs.DaryCuckooNF, _populated(nfs.DaryCuckooNF)),
    "lru_cache": (nfs.LruCacheNF, lambda rt: nfs.LruCacheNF(rt, capacity=128)),
    "maglev": (nfs.MaglevNF, nfs.MaglevNF),
    "elastic": (nfs.ElasticSketchNF, nfs.ElasticSketchNF),
    "sketchvisor": (nfs.SketchVisorNF, nfs.SketchVisorNF),
    "flow_monitor": (nfs.FlowMonitorNF, nfs.FlowMonitorNF),
    "hypercuts": (
        nfs.HyperCutsNF,
        lambda rt: nfs.HyperCutsNF(rt, make_rules_for_flows(FG.flows[:128])),
    ),
}

#: (case, mode) -> {category: cycles} of one replay of TRACE, set-up
#: cycles excluded.  Dispatch and parse (FRAMEWORK/PARSE) are included.
NF_PINS = {
    ("countmin", ExecMode.PURE_EBPF): {
        "FRAMEWORK": 27900, "PARSE": 13500, "MULTIHASH": 172800,
    },
    ("countmin", ExecMode.KERNEL): {
        "FRAMEWORK": 27900, "PARSE": 13500, "MULTIHASH": 81900,
    },
    ("countmin", ExecMode.ENETSTL): {
        "FRAMEWORK": 28500, "PARSE": 13500, "MULTIHASH": 83100,
    },
    ("countmin-crc", ExecMode.PURE_EBPF): {
        "FRAMEWORK": 27900, "PARSE": 13500, "MULTIHASH": 43200,
    },
    ("countmin-crc", ExecMode.KERNEL): {
        "FRAMEWORK": 27900, "PARSE": 13500, "MULTIHASH": 17700,
    },
    ("countmin-crc", ExecMode.ENETSTL): {
        "FRAMEWORK": 28500, "PARSE": 13500, "MULTIHASH": 18900,
    },
    ("countmin-degrade", ExecMode.PURE_EBPF): {
        "FRAMEWORK": 27900, "PARSE": 13500, "MULTIHASH": 86400,
    },
    ("countmin-degrade", ExecMode.KERNEL): {
        "FRAMEWORK": 27900, "PARSE": 13500, "MULTIHASH": 43500,
    },
    ("countmin-degrade", ExecMode.ENETSTL): {
        "FRAMEWORK": 28500, "PARSE": 13500, "MULTIHASH": 44700,
    },
    ("nitrosketch", ExecMode.PURE_EBPF): {
        "FRAMEWORK": 27900, "PARSE": 13500, "RANDOM": 38700,
        "MULTIHASH": 206400,
    },
    ("nitrosketch", ExecMode.KERNEL): {
        "FRAMEWORK": 27900, "PARSE": 13500, "RANDOM": 43384,
        "MULTIHASH": 67200,
    },
    ("nitrosketch", ExecMode.ENETSTL): {
        "FRAMEWORK": 28500, "PARSE": 13500, "RANDOM": 45484,
        "MULTIHASH": 69300,
    },
    ("nitrosketch-p4", ExecMode.PURE_EBPF): {
        "FRAMEWORK": 27900, "PARSE": 13500, "RANDOM": 38700,
        "MULTIHASH": 50568,
    },
    ("nitrosketch-p4", ExecMode.KERNEL): {
        "FRAMEWORK": 27900, "PARSE": 13500, "RANDOM": 8360,
        "MULTIHASH": 16688,
    },
    ("nitrosketch-p4", ExecMode.ENETSTL): {
        "FRAMEWORK": 28500, "PARSE": 13500, "RANDOM": 10187,
        "MULTIHASH": 18515,
    },
    ("cuckoo_switch", ExecMode.PURE_EBPF): {
        "FRAMEWORK": 35400, "PARSE": 13500, "MULTIHASH": 21900,
        "BUCKETS": 13400,
    },
    ("cuckoo_switch", ExecMode.KERNEL): {
        "FRAMEWORK": 27900, "PARSE": 13500, "MULTIHASH": 9600,
        "BUCKETS": 16680,
    },
    ("cuckoo_switch", ExecMode.ENETSTL): {
        "FRAMEWORK": 28500, "PARSE": 13500, "MULTIHASH": 10800,
        "BUCKETS": 17880,
    },
    ("cuckoo_filter", ExecMode.PURE_EBPF): {
        "FRAMEWORK": 31500, "PARSE": 13500, "MULTIHASH": 26400,
        "BUCKETS": 10314,
    },
    ("cuckoo_filter", ExecMode.KERNEL): {
        "FRAMEWORK": 27900, "PARSE": 13500, "MULTIHASH": 10500,
        "BUCKETS": 12030,
    },
    ("cuckoo_filter", ExecMode.ENETSTL): {
        "FRAMEWORK": 28500, "PARSE": 13500, "MULTIHASH": 11700,
        "BUCKETS": 12030,
    },
    ("timewheel", ExecMode.PURE_EBPF): {
        "FRAMEWORK": 34500, "PARSE": 13500, "OTHER": 3000,
        "FUNDAMENTAL_DS": 52928,
    },
    ("timewheel", ExecMode.KERNEL): {
        "FRAMEWORK": 34500, "PARSE": 13500, "OTHER": 3000,
        "FUNDAMENTAL_DS": 13598,
    },
    ("timewheel", ExecMode.ENETSTL): {
        "FRAMEWORK": 35100, "PARSE": 13500, "OTHER": 3000,
        "FUNDAMENTAL_DS": 16990,
    },
    ("eiffel", ExecMode.PURE_EBPF): {
        "FRAMEWORK": 27900, "PARSE": 13500, "FUNDAMENTAL_DS": 16800,
        "BITOPS": 22800,
    },
    ("eiffel", ExecMode.KERNEL): {
        "FRAMEWORK": 27900, "PARSE": 13500, "FUNDAMENTAL_DS": 16800,
        "BITOPS": 3600,
    },
    ("eiffel", ExecMode.ENETSTL): {
        "FRAMEWORK": 28500, "PARSE": 13500, "FUNDAMENTAL_DS": 16800,
        "BITOPS": 6000,
    },
    ("efd", ExecMode.PURE_EBPF): {
        "FRAMEWORK": 33300, "PARSE": 13500, "MULTIHASH": 40800, "OTHER": 1800,
    },
    ("efd", ExecMode.KERNEL): {
        "FRAMEWORK": 27900, "PARSE": 13500, "MULTIHASH": 15300, "OTHER": 1800,
    },
    ("efd", ExecMode.ENETSTL): {
        "FRAMEWORK": 28500, "PARSE": 13500, "MULTIHASH": 16500, "OTHER": 1800,
    },
    ("tss", ExecMode.PURE_EBPF): {
        "FRAMEWORK": 31500, "PARSE": 13500, "OTHER": 14400,
        "MULTIHASH": 134400, "BUCKETS": 103200,
    },
    ("tss", ExecMode.KERNEL): {
        "FRAMEWORK": 27900, "PARSE": 13500, "OTHER": 14400,
        "MULTIHASH": 72300, "BUCKETS": 103200,
    },
    ("tss", ExecMode.ENETSTL): {
        "FRAMEWORK": 28500, "PARSE": 13500, "OTHER": 14400,
        "MULTIHASH": 73500, "BUCKETS": 103200,
    },
    ("heavykeeper", ExecMode.PURE_EBPF): {
        "FRAMEWORK": 27900, "PARSE": 13500, "MULTIHASH": 37800,
        "BUCKETS": 8400, "FUNDAMENTAL_DS": 2700, "RANDOM": 945,
    },
    ("heavykeeper", ExecMode.KERNEL): {
        "FRAMEWORK": 27900, "PARSE": 13500, "MULTIHASH": 17100,
        "BUCKETS": 8400, "FUNDAMENTAL_DS": 2700, "RANDOM": 90,
    },
    ("heavykeeper", ExecMode.ENETSTL): {
        "FRAMEWORK": 28500, "PARSE": 13500, "MULTIHASH": 18300,
        "BUCKETS": 8400, "FUNDAMENTAL_DS": 2700, "RANDOM": 153,
    },
    ("vbf", ExecMode.PURE_EBPF): {
        "FRAMEWORK": 27900, "PARSE": 13500, "MULTIHASH": 19200,
        "BITOPS": 12900,
    },
    ("vbf", ExecMode.KERNEL): {
        "FRAMEWORK": 27900, "PARSE": 13500, "MULTIHASH": 11700,
        "BITOPS": 8100,
    },
    ("vbf", ExecMode.ENETSTL): {
        "FRAMEWORK": 28500, "PARSE": 13500, "MULTIHASH": 12900,
        "BITOPS": 8700,
    },
    ("kv_skiplist", ExecMode.KERNEL): {
        "FRAMEWORK": 27900, "PARSE": 13500, "NONCONTIG": 933596,
    },
    ("kv_skiplist", ExecMode.ENETSTL): {
        "FRAMEWORK": 28500, "PARSE": 13500, "NONCONTIG": 1019850,
    },
    ("bloom", ExecMode.PURE_EBPF): {
        "FRAMEWORK": 27900, "PARSE": 13500, "MULTIHASH": 93600,
    },
    ("bloom", ExecMode.KERNEL): {
        "FRAMEWORK": 27900, "PARSE": 13500, "MULTIHASH": 41592,
    },
    ("bloom", ExecMode.ENETSTL): {
        "FRAMEWORK": 28500, "PARSE": 13500, "MULTIHASH": 42792,
    },
    ("counting_bloom", ExecMode.PURE_EBPF): {
        "FRAMEWORK": 27900, "PARSE": 13500, "MULTIHASH": 94800,
    },
    ("counting_bloom", ExecMode.KERNEL): {
        "FRAMEWORK": 27900, "PARSE": 13500, "MULTIHASH": 43500,
    },
    ("counting_bloom", ExecMode.ENETSTL): {
        "FRAMEWORK": 28500, "PARSE": 13500, "MULTIHASH": 44700,
    },
    ("dary_cuckoo", ExecMode.PURE_EBPF): {
        "FRAMEWORK": 27900, "PARSE": 13500, "MULTIHASH": 81600,
        "BUCKETS": 19128,
    },
    ("dary_cuckoo", ExecMode.KERNEL): {
        "FRAMEWORK": 27900, "PARSE": 13500, "MULTIHASH": 43500,
        "BUCKETS": 10128,
    },
    ("dary_cuckoo", ExecMode.ENETSTL): {
        "FRAMEWORK": 28500, "PARSE": 13500, "MULTIHASH": 44700,
        "BUCKETS": 10128,
    },
    ("lru_cache", ExecMode.KERNEL): {
        "FRAMEWORK": 55677, "PARSE": 13500, "NONCONTIG": 127615,
    },
    ("lru_cache", ExecMode.ENETSTL): {
        "FRAMEWORK": 56755, "PARSE": 13500, "NONCONTIG": 164796,
    },
    ("maglev", ExecMode.PURE_EBPF): {
        "FRAMEWORK": 21900, "PARSE": 13500, "OTHER": 20400,
    },
    ("maglev", ExecMode.KERNEL): {
        "FRAMEWORK": 19200, "PARSE": 13500, "OTHER": 20400,
    },
    ("maglev", ExecMode.ENETSTL): {
        "FRAMEWORK": 20400, "PARSE": 13500, "OTHER": 20400,
    },
    ("elastic", ExecMode.PURE_EBPF): {
        "FRAMEWORK": 27900, "PARSE": 13500, "MULTIHASH": 21080,
        "FUNDAMENTAL_DS": 4200, "BUCKETS": 60,
    },
    ("elastic", ExecMode.KERNEL): {
        "FRAMEWORK": 27900, "PARSE": 13500, "MULTIHASH": 8370,
        "FUNDAMENTAL_DS": 4200, "BUCKETS": 60,
    },
    ("elastic", ExecMode.ENETSTL): {
        "FRAMEWORK": 28500, "PARSE": 13500, "MULTIHASH": 9610,
        "FUNDAMENTAL_DS": 4200, "BUCKETS": 60,
    },
    ("sketchvisor", ExecMode.PURE_EBPF): {
        "FRAMEWORK": 27900, "PARSE": 13500, "BUCKETS": 118172, "OTHER": 4878,
    },
    ("sketchvisor", ExecMode.KERNEL): {
        "FRAMEWORK": 27900, "PARSE": 13500, "BUCKETS": 61329, "OTHER": 4878,
    },
    ("sketchvisor", ExecMode.ENETSTL): {
        "FRAMEWORK": 28500, "PARSE": 13500, "BUCKETS": 63613, "OTHER": 4878,
    },
    ("flow_monitor", ExecMode.PURE_EBPF): {
        "FRAMEWORK": 16500, "PARSE": 13500, "OTHER": 27900,
    },
    ("flow_monitor", ExecMode.KERNEL): {
        "FRAMEWORK": 16500, "PARSE": 13500, "OTHER": 27900,
    },
    ("flow_monitor", ExecMode.ENETSTL): {
        "FRAMEWORK": 16500, "PARSE": 13500, "OTHER": 27900,
    },
    ("hypercuts", ExecMode.PURE_EBPF): {
        "FRAMEWORK": 27900, "PARSE": 13500, "OTHER": 28045,
    },
    ("hypercuts", ExecMode.KERNEL): {
        "FRAMEWORK": 27900, "PARSE": 13500, "OTHER": 25000,
    },
    ("hypercuts", ExecMode.ENETSTL): {
        "FRAMEWORK": 28500, "PARSE": 13500, "OTHER": 25000,
    },
}

#: Fig. 7: (app, build) -> {category: cycles} over the 200-packet trace.
FIG7_PINS = {
    ("katran", "origin"): {
        "FRAMEWORK": 11000, "PARSE": 21000, "BUCKETS": 34350, "OTHER": 38925,
    },
    ("katran", "enetstl"): {
        "FRAMEWORK": 15000, "PARSE": 21000, "MULTIHASH": 6200,
        "BUCKETS": 15410, "OTHER": 32325,
    },
    ("rakelimit", "origin"): {
        "FRAMEWORK": 41400, "PARSE": 9000, "MULTIHASH": 57600, "OTHER": 17400,
    },
    ("rakelimit", "enetstl"): {
        "FRAMEWORK": 43000, "PARSE": 9000, "MULTIHASH": 29800, "OTHER": 17400,
    },
    ("polycube", "origin"): {
        "FRAMEWORK": 11000, "PARSE": 9000, "MULTIHASH": 27200, "BITOPS": 1600,
        "BUCKETS": 34350, "OTHER": 34000,
    },
    ("polycube", "enetstl"): {
        "FRAMEWORK": 15000, "PARSE": 9000, "MULTIHASH": 21600, "BITOPS": 800,
        "BUCKETS": 15410, "OTHER": 34000,
    },
    ("sketches", "origin"): {
        "FRAMEWORK": 18600, "PARSE": 9000, "MULTIHASH": 86400,
        "OTHER": 146400, "FUNDAMENTAL_DS": 2400, "RANDOM": 21800,
    },
    ("sketches", "enetstl"): {
        "FRAMEWORK": 15000, "PARSE": 9000, "MULTIHASH": 43200,
        "OTHER": 146400, "FUNDAMENTAL_DS": 2400, "RANDOM": 400,
    },
}

#: ``table2_results()`` as (component, variant, cycles_per_op).
TABLE2 = [
    ("ffs", "ebpf", 19.0),
    ("ffs", "enetstl", 5.0),
    ("ffs", "kernel", 3.0),
    ("popcnt", "ebpf", 14.0),
    ("popcnt", "enetstl", 5.0),
    ("popcnt", "kernel", 3.0),
    ("find_simd", "ebpf", 56.0),
    ("find_simd", "enetstl", 28.0),
    ("find_simd", "kernel", 24.0),
    ("reduce_simd", "ebpf", 48.0),
    ("reduce_simd", "enetstl", 27.0),
    ("reduce_simd", "kernel", 23.0),
    ("hw_hash", "ebpf", 68.0),
    ("hw_hash", "enetstl", 31.0),
    ("hw_hash", "kernel", 27.0),
    ("hash_cnt8", "ebpf", 576.0),
    ("hash_cnt8", "enetstl", 277.0),
    ("hash_cnt8", "kernel", 273.0),
    ("random_pool", "ebpf", 105.0),
    ("random_pool", "enetstl", 17.0),
    ("random_pool", "kernel", 10.0),
    ("geo_pool", "ebpf", 105.0),
    ("geo_pool", "enetstl", 17.0),
    ("geo_pool", "kernel", 10.0),
    ("list_buckets", "ebpf", 140.0),
    ("list_buckets", "enetstl", 41.0),
    ("list_buckets", "kernel", 33.0),
    ("memwrap_traverse", "enetstl", 143.0),
    ("memwrap_traverse", "kernel", 130.0),
]

#: ``fig6_interface_comparison()``.
FIG6 = {
    "COMP": {"high": 28.0, "low": 96.0, "degradation": 0.7083333333333333},
    "HASH": {"high": 277.0, "low": 693.0, "degradation": 0.6002886002886003},
}


def _named(by_category):
    return {cat.name: cyc for cat, cyc in by_category.items() if cyc}


def _replay(build, mode, latency):
    rt = BpfRuntime(mode=mode, seed=SEED)
    nf = build(rt)
    rt.cycles.reset()
    result = XdpPipeline(nf).run(TRACE, measure_latency=latency)
    assert result.n_packets == N_PACKETS
    return _named(result.by_category)


def _case_modes():
    return [
        (case, mode)
        for case, (cls, _) in CASES.items()
        for mode in cls.supported_modes
    ]


def test_every_exported_nf_class_is_pinned():
    exported = {
        obj for obj in vars(nfs).values()
        if inspect.isclass(obj) and issubclass(obj, nfs.BaseNF)
        and obj is not nfs.BaseNF
    }
    assert {cls for cls, _ in CASES.values()} == exported
    assert set(NF_PINS) == set(_case_modes())


@pytest.mark.parametrize("latency", [False, True], ids=["batched", "per-packet"])
@pytest.mark.parametrize(
    "case,mode", _case_modes(), ids=lambda v: getattr(v, "value", v)
)
def test_nf_charges_pinned(case, mode, latency):
    assert _replay(CASES[case][1], mode, latency) == NF_PINS[case, mode]


def test_fig7_charges_pinned():
    trace = _fig7_trace(200, 14)
    got = {}
    for app in sorted({app for app, _ in FIG7_PINS}):
        for build, nf in fig7_nfs(app, seed=14).items():
            nf.rt.cycles.reset()
            result = XdpPipeline(nf).run(trace)
            got[app, build] = _named(result.by_category)
    assert got == FIG7_PINS


def test_table2_pinned():
    got = [(r.component, r.variant, r.cycles_per_op) for r in table2_results()]
    assert got == TABLE2


def test_fig6_pinned():
    assert fig6_interface_comparison() == FIG6
