"""Experiment harness: one entry point per paper figure/table.

Every function builds identical workloads for each execution mode,
replays them through the XDP pipeline, and returns a structured result
(:mod:`repro.analysis.results`).  Benchmarks, tests, and the report
printer all consume these — the numbers in EXPERIMENTS.md come from
here.

Packet counts default low enough for CI; benches pass larger ones.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence, Tuple

from ..ebpf.cost_model import Category, ExecMode
from ..ebpf.runtime import BpfRuntime
from ..net.flowgen import FlowGenerator, make_flows, rate_to_inter_arrival_ns
from ..net.packet import Packet
from ..net.xdp import PipelineResult, XdpPipeline
from ..nfs import (
    CountMinNF,
    CuckooFilterNF,
    CuckooSwitchNF,
    EfdLoadBalancerNF,
    EiffelNF,
    HeavyKeeperNF,
    NitroSketchNF,
    SkipListKV,
    TimeWheelNF,
    TssClassifierNF,
    VbfNF,
)
from ..nfs.kv_skiplist import OP_LOOKUP, OP_UPDATE_DELETE
from ..datastructs.tss import MaskTuple, Rule
from .results import BehaviorShare, LatencyPoint, ModePoint, Sweep

ALL_MODES = (ExecMode.PURE_EBPF, ExecMode.KERNEL, ExecMode.ENETSTL)
KERNEL_MODES = (ExecMode.KERNEL, ExecMode.ENETSTL)

MASK64 = (1 << 64) - 1

# Default sweep values, read by the experiment functions' signatures and
# by the runner's registry (``repro.analysis.registry``).
SKIPLIST_LOADS = (1024, 4096, 16384)                # Fig. 3(a)/(b)
LOAD_FACTORS = (0.2, 0.4, 0.6, 0.8, 0.95)           # Fig. 3(c)/(g)
NITRO_PROBS = (1 / 64, 1 / 16, 1 / 4, 1 / 2, 1.0)   # Fig. 3(d)
COUNTMIN_DEPTHS = (1, 2, 4, 6, 8)                   # Fig. 3(e), #hashes
TIMEWHEEL_TICKS_NS = (250, 500, 1000, 2000, 4000)   # Fig. 3(f)
EIFFEL_LEVELS = (1, 2, 3, 4)                        # Fig. 3(h)
OTHER_NFS = ("efd", "tss", "heavykeeper", "vbf")    # §6.2 "other cases"


def _measure(
    nf, trace: Sequence[Packet], latency: bool = False
) -> PipelineResult:
    return XdpPipeline(nf).run(trace, measure_latency=latency)


def _point(x: float, mode: ExecMode, result: PipelineResult, **extra) -> ModePoint:
    return ModePoint(
        x=x,
        mode=mode,
        cycles_per_packet=result.cycles_per_packet,
        pps=result.pps,
        proc_ns=result.proc_time_ns,
        extra=dict(extra),
    )


def _add_modes(sweep, x, trace, seed, build, modes=ALL_MODES, extra=None):
    """Add one point per mode at ``x``: each mode gets a fresh runtime
    and ``build(rt)``'s NF, whose set-up cycles are dropped before the
    replay; ``extra(nf)`` is read after it."""
    for mode in modes:
        rt = BpfRuntime(mode=mode, seed=seed)
        nf = build(rt)
        rt.cycles.reset()
        result = _measure(nf, trace)
        sweep.add(_point(x, mode, result, **(extra(nf) if extra else {})))
        # NFs sit in reference cycles that only the cyclic collector
        # frees: dropped before the next build, this one is reclaimed by
        # the collections that build triggers, so two large tables are
        # never live at once (peak memory).
        del nf


# ---------------------------------------------------------------------------
# Fig. 3(a)/(b): skip-list key-value query (case study 1)
# ---------------------------------------------------------------------------

def fig3a_skiplist_lookup(
    loads: Sequence[int] = SKIPLIST_LOADS,
    n_packets: int = 1200,
    seed: int = 3,
) -> Sweep:
    """Lookup throughput vs table size; eNetSTL vs kernel only (P1)."""
    return _skiplist_sweep("fig3a", OP_LOOKUP, loads, n_packets, seed)


def fig3b_skiplist_update_delete(
    loads: Sequence[int] = SKIPLIST_LOADS,
    n_packets: int = 1200,
    seed: int = 4,
) -> Sweep:
    """Update/delete (1:1) throughput vs table size."""
    return _skiplist_sweep("fig3b", OP_UPDATE_DELETE, loads, n_packets, seed)


def _skiplist_sweep(name, op_mix, loads, n_packets, seed) -> Sweep:
    sweep = Sweep(name, "elements in the key-value map")
    for load in loads:
        fg = FlowGenerator(n_flows=load, seed=seed)
        keys = [f.key_int & MASK64 for f in fg.flows]
        trace = fg.trace(n_packets)
        # Only the keys and the trace are used from here on; dropping
        # the flow population before the lists are built lowers peak
        # memory.
        del fg

        def build(rt):
            nf = SkipListKV(rt, op_mix=op_mix)
            nf.populate(keys)
            return nf

        _add_modes(sweep, load, trace, seed, build, modes=KERNEL_MODES)
    return sweep


# ---------------------------------------------------------------------------
# Fig. 3(c)/(g): cuckoo tables vs load factor
# ---------------------------------------------------------------------------

def _fill_through(load_factors, capacity, seed, fresh):
    """Yield ``(alpha, flows, filled)`` per load factor, in order.

    ``flows`` is ``make_flows(int(alpha * capacity), seed)``, the
    resident keys, and ``filled`` an NF from ``fresh()`` populated with
    exactly those keys in order.  One population is drawn for the
    whole sweep and one table is filled through it: ``make_flows(n,
    seed)`` is a prefix of any larger population and inserts are
    deterministic (the filter's kick RNG included), so topping up the previous
    point's table with the next keys leaves it as a fresh fill would.
    A smaller load factor than the one before starts a fresh table.
    The fill is uncharged control-plane set-up; callers copy
    ``filled`` per mode and never probe it.
    """
    sizes = [int(alpha * capacity) for alpha in load_factors]
    if not sizes:
        return
    population = make_flows(max(sizes), seed)
    filled, done = None, 0
    for alpha, n in zip(load_factors, sizes):
        if n <= 0:
            raise ValueError("n_flows must be positive")
        if filled is None or n < done:
            filled, done = fresh(), 0
        flows = population[:n]
        filled.populate(f.key_int for f in flows[done:])
        done = n
        yield alpha, flows, filled


def fig3c_cuckoo_switch(
    load_factors: Sequence[float] = LOAD_FACTORS,
    n_buckets: int = 2048,
    slots: int = 8,
    n_packets: int = 2000,
    seed: int = 5,
) -> Sweep:
    return _cuckoo_sweep(
        "fig3c", CuckooSwitchNF, "table",
        load_factors, n_buckets, slots, n_packets, seed,
    )


def _cuckoo_sweep(
    name, nf_class, table, load_factors, n_buckets, slots, n_packets, seed
) -> Sweep:
    """Fill one table through the load factors; at each, every mode
    replays a copy of it (``nf_class``'s ``table`` attribute)."""
    sweep = Sweep(name, "load factor")

    def fresh(rt):
        return nf_class(rt, n_buckets=n_buckets, slots_per_bucket=slots)

    fills = _fill_through(
        load_factors, n_buckets * slots, seed, lambda: fresh(BpfRuntime())
    )
    for alpha, flows, filled in fills:
        # Traffic is restricted to the resident keys.
        trace = FlowGenerator(seed=seed + 1, flows=flows).trace(n_packets)

        def build(rt):
            nf = fresh(rt)
            setattr(nf, table, getattr(filled, table).copy())
            return nf

        _add_modes(
            sweep, alpha, trace, seed, build,
            extra=lambda nf: {"load": nf.load_factor},
        )
    return sweep


# ---------------------------------------------------------------------------
# Fig. 3(d): NitroSketch vs update probability
# ---------------------------------------------------------------------------

def fig3d_nitrosketch(
    probs: Sequence[float] = NITRO_PROBS,
    depth: int = 8,
    n_packets: int = 2500,
    seed: int = 6,
) -> Sweep:
    sweep = Sweep("fig3d", "update probability")
    fg = FlowGenerator(n_flows=1024, seed=seed)
    trace = fg.trace(n_packets)
    for p in probs:
        _add_modes(
            sweep, p, trace, seed,
            lambda rt: NitroSketchNF(rt, depth=depth, update_prob=p),
        )
    return sweep


# ---------------------------------------------------------------------------
# Fig. 3(e): Count-min sketch vs number of hash functions (case study 2)
# ---------------------------------------------------------------------------

def fig3e_countmin(
    depths: Sequence[int] = COUNTMIN_DEPTHS,
    n_packets: int = 2500,
    seed: int = 7,
) -> Sweep:
    sweep = Sweep("fig3e", "number of hash functions")
    fg = FlowGenerator(n_flows=1024, seed=seed)
    trace = fg.trace(n_packets)
    for depth in depths:
        _add_modes(
            sweep, depth, trace, seed, lambda rt: CountMinNF(rt, depth=depth)
        )
    return sweep


# ---------------------------------------------------------------------------
# Fig. 3(f): time wheel vs slot granularity (case study 3)
# ---------------------------------------------------------------------------

def fig3f_timewheel(
    tick_ns_values: Sequence[int] = TIMEWHEEL_TICKS_NS,
    n_packets: int = 2000,
    pps: float = 1_000_000.0,
    seed: int = 8,
) -> Sweep:
    sweep = Sweep("fig3f", "slot granularity (ns)")
    fg = FlowGenerator(n_flows=1024, seed=seed)
    gap_ns = rate_to_inter_arrival_ns(pps)
    trace = fg.trace(n_packets, inter_arrival_ns=gap_ns)
    for tick in tick_ns_values:
        _add_modes(
            sweep, tick, trace, seed,
            lambda rt: TimeWheelNF(rt, tick_ns=tick),
            extra=lambda nf: {"dequeued": nf.dequeued},
        )
    return sweep


# ---------------------------------------------------------------------------
# Fig. 3(g): cuckoo filter vs load factor
# ---------------------------------------------------------------------------

def fig3g_cuckoo_filter(
    load_factors: Sequence[float] = LOAD_FACTORS,
    n_buckets: int = 4096,
    slots: int = 4,
    n_packets: int = 2000,
    seed: int = 9,
) -> Sweep:
    return _cuckoo_sweep(
        "fig3g", CuckooFilterNF, "filter",
        load_factors, n_buckets, slots, n_packets, seed,
    )


# ---------------------------------------------------------------------------
# Fig. 3(h): Eiffel cFFS vs bitmap levels
# ---------------------------------------------------------------------------

def fig3h_eiffel(
    levels: Sequence[int] = EIFFEL_LEVELS,
    n_packets: int = 2000,
    seed: int = 10,
) -> Sweep:
    sweep = Sweep("fig3h", "cFFS levels (64^level priorities)")
    fg = FlowGenerator(n_flows=1024, seed=seed)
    trace = fg.trace(n_packets)
    for lvl in levels:
        _add_modes(
            sweep, lvl, trace, seed, lambda rt: EiffelNF(rt, levels=lvl)
        )
    return sweep


# ---------------------------------------------------------------------------
# §6.2 "Other cases": EFD, TSS, HeavyKeeper, VBF
# ---------------------------------------------------------------------------

def _default_masks() -> List[MaskTuple]:
    return [
        MaskTuple(32, 32, True, True, True),
        MaskTuple(24, 32, False, True, True),
        MaskTuple(32, 24, True, False, True),
        MaskTuple(16, 16, False, True, True),
        MaskTuple(24, 24, False, False, True),
        MaskTuple(8, 32, False, True, False),
        MaskTuple(32, 8, True, False, False),
        MaskTuple(0, 16, False, True, True),
    ]


def make_rules_for_flows(
    flows: Sequence[Packet], masks: Optional[List[MaskTuple]] = None
) -> List[Rule]:
    """One permit rule per flow, spread round-robin across the masks."""
    masks = masks or _default_masks()
    rules = []
    for i, f in enumerate(flows):
        mask = masks[i % len(masks)]
        rules.append(
            Rule(
                mask=mask,
                src_ip=f.src_ip,
                dst_ip=f.dst_ip,
                src_port=f.src_port,
                dst_port=f.dst_port,
                proto=f.proto,
                priority=i % 32,
                action="permit",
            )
        )
    return rules


def other_nf(name: str, n_packets: int = 2000, seed: int = 11) -> Sweep:
    """Single-configuration sweep for EFD / TSS / HeavyKeeper / VBF."""
    if name not in OTHER_NFS:
        raise ValueError(f"unknown NF {name!r}")
    sweep = Sweep(name, "default configuration")
    fg = FlowGenerator(
        n_flows=1024,
        seed=seed,
        distribution="zipf" if name == "heavykeeper" else "uniform",
    )
    trace = fg.trace(n_packets)
    if name == "efd":
        # The control plane fills the table once, uncharged, before the
        # XDP program runs; each mode gets its own copy.
        filled = EfdLoadBalancerNF(BpfRuntime())
        filled.bind_flows(
            (f.key_int for f in fg.flows), lambda k: k % filled.table.n_targets
        )

        def build(rt):
            nf = EfdLoadBalancerNF(rt)
            nf.table = filled.table.copy()
            return nf

    else:
        # Their one configuration is the one Fig. 4/5 measures.
        build = functools.partial(_heavy_nf, name, fg=fg)
    _add_modes(sweep, 0.0, trace, seed, build)
    return sweep


# ---------------------------------------------------------------------------
# Fig. 4 / Fig. 5: latency and per-packet processing time
# ---------------------------------------------------------------------------

def _heavy_nf(name: str, rt: BpfRuntime, fg: FlowGenerator):
    """Each NF under its heavy configuration (§6.3)."""
    if name == "cuckoo_switch":
        nf = CuckooSwitchNF(rt, n_buckets=2048)
        nf.populate(f.key_int for f in fg.flows)
        return nf
    if name == "countmin":
        return CountMinNF(rt, depth=8)
    if name == "nitrosketch":
        return NitroSketchNF(rt, depth=8, update_prob=1.0)
    if name == "cuckoo_filter":
        nf = CuckooFilterNF(rt, n_buckets=2048)
        nf.populate(f.key_int for f in fg.flows)
        return nf
    if name == "timewheel":
        return TimeWheelNF(rt, tick_ns=250)
    if name == "eiffel":
        return EiffelNF(rt, levels=4)
    if name == "efd":
        nf = EfdLoadBalancerNF(rt)
        nf.bind_flows((f.key_int for f in fg.flows), lambda k: k % 4)
        return nf
    if name == "tss":
        nf = TssClassifierNF(rt)
        nf.install_rules(make_rules_for_flows(fg.flows[:512]))
        return nf
    if name == "heavykeeper":
        return HeavyKeeperNF(rt)
    if name == "vbf":
        nf = VbfNF(rt)
        for i, f in enumerate(fg.flows):
            nf.add_member(f.key_int, i % nf.vbf.n_sets)
        return nf
    if name == "kv_skiplist":
        nf = SkipListKV(rt, op_mix=OP_LOOKUP)
        nf.populate(f.key_int for f in fg.flows)
        return nf
    raise ValueError(f"unknown NF {name!r}")


LATENCY_NFS = (
    "kv_skiplist",
    "cuckoo_switch",
    "countmin",
    "nitrosketch",
    "cuckoo_filter",
    "timewheel",
    "eiffel",
    "efd",
    "tss",
    "heavykeeper",
    "vbf",
)


def fig4_fig5_latency(
    nfs: Sequence[str] = LATENCY_NFS,
    n_packets: int = 400,
    pps: float = 1000.0,
    seed: int = 12,
) -> List[LatencyPoint]:
    """End-to-end latency at 1 kpps plus per-packet processing time."""
    points: List[LatencyPoint] = []
    gap_ns = rate_to_inter_arrival_ns(pps)
    for name in nfs:
        fg = FlowGenerator(n_flows=512, seed=seed)
        trace = fg.trace(n_packets, inter_arrival_ns=gap_ns)
        modes = KERNEL_MODES if name == "kv_skiplist" else ALL_MODES
        for mode in modes:
            rt = BpfRuntime(mode=mode, seed=seed)
            nf = _heavy_nf(name, rt, fg)
            rt.cycles.reset()
            result = _measure(nf, trace, latency=True)
            points.append(
                LatencyPoint(
                    nf=name,
                    mode=mode,
                    avg_latency_us=result.avg_latency_us,
                    proc_ns=result.proc_time_ns,
                )
            )
    return points


# ---------------------------------------------------------------------------
# Fig. 1: share of execution time in the six shared behaviors
# ---------------------------------------------------------------------------

#: NF -> (label, the observation categories its shared behavior spans).
#: Fig. 1 reports the share of each NF's *own* performance-critical
#: behavior (§3), not of every category at once.
BEHAVIOR_OF = {
    "eiffel": ("O1", (Category.BITOPS,)),
    "vbf": ("O1+O2", (Category.BITOPS, Category.MULTIHASH)),
    "countmin": ("O2", (Category.MULTIHASH,)),
    "cuckoo_switch": ("O2+O6", (Category.MULTIHASH, Category.BUCKETS)),
    "efd": ("O2", (Category.MULTIHASH,)),
    "tss": ("O2", (Category.MULTIHASH,)),
    "timewheel": ("O3", (Category.FUNDAMENTAL_DS,)),
    "nitrosketch": ("O4", (Category.RANDOM,)),
    "heavykeeper": ("O4+O2", (Category.RANDOM, Category.MULTIHASH)),
    "cuckoo_filter": ("O6+O2", (Category.BUCKETS, Category.MULTIHASH)),
}


def _moderate_nf(name: str, rt: BpfRuntime, fg: FlowGenerator):
    """Default (paper-moderate) configurations for the Fig. 1 runs."""
    if name == "countmin":
        return CountMinNF(rt, depth=4)
    if name == "nitrosketch":
        return NitroSketchNF(rt, depth=8, update_prob=0.25)
    return _heavy_nf(name, rt, fg)


@functools.lru_cache(maxsize=1)
def _fig7_trace(n_packets: int, seed: int) -> Tuple[Packet, ...]:
    """The one trace every Fig. 7 build replays, generated once per
    process: the parallel runner's per-app shards share it.  Frozen
    packets in a tuple, so no replay can change it for the next."""
    fg = FlowGenerator(n_flows=1024, seed=seed, distribution="zipf")
    return tuple(fg.trace(n_packets))


def fig7_apps(
    n_packets: int = 2500,
    seed: int = 14,
    apps: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """Origin vs eNetSTL-integrated builds of the four real projects.

    Each build replays the app's one verified-IR chain
    (:func:`repro.apps.ir.fig7_nfs`); the builds differ only in what
    each kfunc call charges, so the ratio is the component swap alone.
    Returns app -> {"origin_pps", "enetstl_pps", "improvement"}.
    ``apps`` restricts to a subset (the parallel runner shards on it).
    """
    from ..apps.ir import IR_APP_NAMES, fig7_nfs

    trace = _fig7_trace(n_packets, seed)
    out: Dict[str, Dict[str, float]] = {}
    for app_name in IR_APP_NAMES if apps is None else apps:
        pps = {
            build: _measure(nf, trace).pps
            for build, nf in fig7_nfs(app_name, seed=seed).items()
        }
        out[app_name] = {
            "origin_pps": pps["origin"],
            "enetstl_pps": pps["enetstl"],
            "improvement": pps["enetstl"] / pps["origin"] - 1.0,
        }
    return out


def fig1_behavior_shares(
    n_packets: int = 1200,
    seed: int = 13,
    nfs: Optional[Sequence[str]] = None,
) -> List[BehaviorShare]:
    """Fraction of eBPF execution time spent in the shared behaviors.

    O5 (non-contiguous memory) is absent, as in the paper: it cannot be
    measured in eBPF at all.  ``nfs`` restricts to a subset (the
    parallel runner shards on it).
    """
    selected = (
        BEHAVIOR_OF if nfs is None else {name: BEHAVIOR_OF[name] for name in nfs}
    )
    shares: List[BehaviorShare] = []
    for name, (obs, categories) in selected.items():
        fg = FlowGenerator(
            n_flows=512,
            seed=seed,
            distribution="zipf" if name == "heavykeeper" else "uniform",
        )
        trace = fg.trace(n_packets, inter_arrival_ns=1000)
        rt = BpfRuntime(mode=ExecMode.PURE_EBPF, seed=seed)
        nf = _moderate_nf(name, rt, fg)
        rt.cycles.reset()
        result = _measure(nf, trace)
        share = result.behavior_share(*categories)
        shares.append(BehaviorShare(nf=name, observation=obs, share=share))
    return shares


# ---------------------------------------------------------------------------
# Extension: multi-queue steering / NUMA (beyond the paper's single core)
# ---------------------------------------------------------------------------

#: Steering policies the multicore experiment sweeps, in report order.
STEERING_POLICIES = ("rss", "rekey", "ntuple")


def multicore_steering(
    policies: Sequence[str] = STEERING_POLICIES,
    n_cores: int = 8,
    n_packets: int = 12000,
    n_flows: int = 8192,
    seed: int = 5,
    numa_nodes: int = 1,
) -> Dict[str, Dict[str, float]]:
    """Zipf replay across the steering policies (streamed, per policy).

    One fresh Zipf(1.1) generator and dispatcher fleet per policy —
    every policy steers the *identical* packet stream, so cycle totals
    match across policies and only placement (hence imbalance and
    aggregate PPS) differs.  ``numa_nodes > 1`` adds the cross-node
    packet penalty to wall-clock metrics.  The trace is streamed via
    :meth:`FlowGenerator.iter_trace`; nothing is materialized.
    """
    from ..ebpf.cost_model import NumaTopology
    from ..net.multicore import RssDispatcher

    numa = NumaTopology(n_nodes=numa_nodes) if numa_nodes > 1 else None
    out: Dict[str, Dict[str, float]] = {}
    for policy in policies:
        fg = FlowGenerator(n_flows=n_flows, seed=seed, distribution="zipf")
        factory = lambda core: CountMinNF(
            BpfRuntime(mode=ExecMode.ENETSTL, seed=core), depth=4
        )
        dispatcher = RssDispatcher(
            factory, n_cores=n_cores, steering=policy, numa=numa
        )
        result = dispatcher.run(fg.iter_trace(n_packets))
        out[policy] = {
            "imbalance": result.imbalance,
            "aggregate_mpps": result.aggregate_mpps,
            "total_cycles": float(result.total_cycles),
            "numa_cycles": float(result.total_numa_cycles),
            "n_packets": float(result.n_packets),
        }
    return out
