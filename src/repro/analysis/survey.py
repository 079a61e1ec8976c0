"""Table 1: the 35 surveyed NF works and their eBPF implementability.

The catalog reconstructs the paper's survey: each work's category, its
shared behaviors (§3's O1-O6), and the eBPF verdict — ``INFEASIBLE``
(P1: non-contiguous memory), ``DEGRADED`` (P2, with the paper's
reported range for its category), or ``OK``.

``measured_degradations`` recomputes the eBPF-vs-kernel throughput loss
for the 11 NFs this repository implements, which the Table 1 bench
prints next to the paper's ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..ebpf.cost_model import ExecMode

INFEASIBLE = "infeasible"   # the paper's X
DEGRADED = "degraded"
OK = "ok"                   # the paper's check mark


@dataclass(frozen=True)
class SurveyedWork:
    ref: int                     # citation number in the paper
    name: str
    category: str
    behaviors: Tuple[str, ...]   # O1..O6
    verdict: str
    implemented_as: Optional[str] = None   # repro NF id, if built here


#: The paper's seven NF categories.
CATEGORIES = (
    "key-value query",
    "membership test",
    "packet classification",
    "load balancing",
    "counting",
    "sketching",
    "queuing",
)

#: Degradation ranges the paper reports per problem area (§1, §2.2).
PAPER_DEGRADATION_RANGES = {
    "key-value query": (0.215, 0.298),
    "sketching": (0.192, 0.492),
    "queuing": (0.148, 0.316),
}

SURVEY: List[SurveyedWork] = [
    # -- key-value query -------------------------------------------------
    SurveyedWork(27, "d-ary cuckoo hash", "key-value query",
                 ("O2", "O6"), DEGRADED, implemented_as="dary_cuckoo"),
    SurveyedWork(44, "SILT", "key-value query", ("O6",), DEGRADED),
    SurveyedWork(47, "NFD-HCS (skip list)", "key-value query",
                 ("O5",), INFEASIBLE, implemented_as="kv_skiplist"),
    SurveyedWork(59, "cuckoo hashing", "key-value query",
                 ("O2", "O6"), DEGRADED),
    SurveyedWork(82, "CuckooSwitch", "key-value query",
                 ("O2", "O6"), DEGRADED, implemented_as="cuckoo_switch"),
    # -- membership test -----------------------------------------------------
    SurveyedWork(8, "Bloom filter", "membership test", ("O2",), DEGRADED,
                 implemented_as="bloom"),
    SurveyedWork(10, "counting Bloom filter", "membership test",
                 ("O2", "O6"), DEGRADED, implemented_as="counting_bloom"),
    SurveyedWork(25, "cuckoo filter", "membership test",
                 ("O6",), DEGRADED, implemented_as="cuckoo_filter"),
    SurveyedWork(26, "summary cache", "membership test", ("O2",), DEGRADED),
    SurveyedWork(34, "rank-indexed hashing", "membership test",
                 ("O1",), DEGRADED),
    SurveyedWork(36, "DPDK membership (vBF)", "membership test",
                 ("O1", "O2"), DEGRADED, implemented_as="vbf"),
    SurveyedWork(61, "cache-efficient Bloom", "membership test",
                 ("O6",), DEGRADED),
    # -- packet classification --------------------------------------------------
    SurveyedWork(67, "HyperCuts-style cutting", "packet classification",
                 (), OK, implemented_as="hypercuts"),
    SurveyedWork(68, "Tuple Space Search", "packet classification",
                 ("O2", "O6"), DEGRADED, implemented_as="tss"),
    SurveyedWork(74, "EffiCuts", "packet classification", (), OK),
    # -- load balancing ------------------------------------------------------------
    SurveyedWork(20, "DPDK EFD", "load balancing",
                 ("O2",), DEGRADED, implemented_as="efd"),
    SurveyedWork(23, "Maglev", "load balancing", (), OK,
                 implemented_as="maglev"),
    SurveyedWork(58, "Beamer", "load balancing", (), OK),
    # -- counting --------------------------------------------------------------------
    SurveyedWork(3, "Memento", "counting", ("O4",), DEGRADED),
    SurveyedWork(5, "sliding-window HH", "counting", ("O6",), DEGRADED),
    SurveyedWork(6, "constant-time HHH", "counting", ("O4", "O6"), DEGRADED),
    SurveyedWork(22, "TinyTable", "counting", ("O1", "O6"), DEGRADED),
    SurveyedWork(50, "Space-Saving", "counting", ("O5",), INFEASIBLE),
    SurveyedWork(55, "HHH space-saving", "counting", ("O6",), DEGRADED),
    SurveyedWork(81, "HeavyKeeper", "counting",
                 ("O2", "O4"), DEGRADED, implemented_as="heavykeeper"),
    # -- sketching -----------------------------------------------------------------------
    SurveyedWork(15, "Count-min sketch", "sketching",
                 ("O2",), DEGRADED, implemented_as="countmin"),
    SurveyedWork(35, "SketchVisor", "sketching", ("O2", "O3"), DEGRADED,
                 implemented_as="sketchvisor"),
    SurveyedWork(45, "NitroSketch", "sketching",
                 ("O2", "O4"), DEGRADED, implemented_as="nitrosketch"),
    SurveyedWork(46, "UnivMon", "sketching", ("O1", "O2"), DEGRADED),
    SurveyedWork(80, "ElasticSketch", "sketching", ("O2", "O3"), DEGRADED,
                 implemented_as="elastic"),
    # -- queuing -------------------------------------------------------------------------
    SurveyedWork(24, "fq (red-black tree)", "queuing", ("O5",), INFEASIBLE),
    SurveyedWork(63, "Carousel", "queuing",
                 ("O3",), DEGRADED, implemented_as="timewheel"),
    SurveyedWork(64, "Eiffel", "queuing",
                 ("O1", "O3"), DEGRADED, implemented_as="eiffel"),
    SurveyedWork(66, "PCQ", "queuing", ("O3",), DEGRADED),
    SurveyedWork(72, "kernel timer wheel", "queuing", ("O1", "O3"), DEGRADED),
]


def survey_summary() -> Dict[str, int]:
    """Counts matching the paper: 35 works, 3 infeasible, 28 degraded,
    4 OK."""
    return {
        "total": len(SURVEY),
        INFEASIBLE: sum(1 for w in SURVEY if w.verdict == INFEASIBLE),
        DEGRADED: sum(1 for w in SURVEY if w.verdict == DEGRADED),
        OK: sum(1 for w in SURVEY if w.verdict == OK),
    }


def works_by_category() -> Dict[str, List[SurveyedWork]]:
    out: Dict[str, List[SurveyedWork]] = {c: [] for c in CATEGORIES}
    for work in SURVEY:
        out[work.category].append(work)
    return out


def measured_degradations(n_packets: int = 800) -> Dict[str, float]:
    """eBPF-vs-kernel throughput loss for the NFs built here.

    Degradation = 1 - pps(eBPF)/pps(kernel), at each NF's default
    configuration (heavier sweeps are in the Fig. 3 benches).
    """
    from . import experiments as exp

    out: Dict[str, float] = {}

    def from_sweep(name: str, sweep) -> None:
        # Use the heaviest x point for a representative number.
        x = sweep.xs()[-1]
        ebpf = sweep.at(x, ExecMode.PURE_EBPF)
        kern = sweep.at(x, ExecMode.KERNEL)
        if ebpf and kern:
            out[name] = 1.0 - ebpf.pps / kern.pps

    from_sweep("cuckoo_switch", exp.fig3c_cuckoo_switch(n_packets=n_packets))
    from_sweep("countmin", exp.fig3e_countmin(n_packets=n_packets))
    from_sweep("nitrosketch", exp.fig3d_nitrosketch(n_packets=n_packets))
    from_sweep("cuckoo_filter", exp.fig3g_cuckoo_filter(n_packets=n_packets))
    from_sweep("timewheel", exp.fig3f_timewheel(n_packets=n_packets))
    from_sweep("eiffel", exp.fig3h_eiffel(n_packets=n_packets))
    for nf in exp.OTHER_NFS:
        from_sweep(nf, exp.other_nf(nf, n_packets=n_packets))
    return out
