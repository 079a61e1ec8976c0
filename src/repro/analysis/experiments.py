"""Experiment harness: one entry point per paper figure/table.

Every function builds identical workloads for each execution mode,
replays them through the XDP pipeline, and returns a structured result
(:mod:`repro.analysis.results`).  Benchmarks, tests, and the report
printer all consume these — the numbers in EXPERIMENTS.md come from
here.

Packet counts default low enough for CI; benches pass larger ones.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..ebpf.cost_model import (
    Category,
    DEFAULT_COSTS,
    ExecMode,
    OBSERVATION_CATEGORIES,
)
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


def _measure(
    nf,
    trace: Sequence[Packet],
    warmup: Optional[Sequence[Packet]] = None,
    latency: bool = False,
) -> PipelineResult:
    pipe = XdpPipeline(nf)
    if warmup:
        pipe.run(warmup)
    return pipe.run(trace, measure_latency=latency)


def _point(x: float, mode: ExecMode, result: PipelineResult, **extra) -> ModePoint:
    return ModePoint(
        x=x,
        mode=mode,
        cycles_per_packet=result.cycles_per_packet,
        pps=result.pps,
        proc_ns=result.proc_time_ns,
        extra=dict(extra),
    )


# ---------------------------------------------------------------------------
# Fig. 3(a)/(b): skip-list key-value query (case study 1)
# ---------------------------------------------------------------------------

def fig3a_skiplist_lookup(
    loads: Sequence[int] = (1024, 4096, 16384),
    n_packets: int = 1200,
    seed: int = 3,
) -> Sweep:
    """Lookup throughput vs table size; eNetSTL vs kernel only (P1)."""
    return _skiplist_sweep("fig3a", OP_LOOKUP, loads, n_packets, seed)


def fig3b_skiplist_update_delete(
    loads: Sequence[int] = (1024, 4096, 16384),
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
        for mode in KERNEL_MODES:
            rt = BpfRuntime(mode=mode, seed=seed)
            nf = SkipListKV(rt, op_mix=op_mix)
            nf.populate(keys)
            rt.cycles.reset()
            result = _measure(nf, trace)
            sweep.add(_point(load, mode, result))
    return sweep


# ---------------------------------------------------------------------------
# Fig. 3(c): CuckooSwitch vs load factor
# ---------------------------------------------------------------------------

def fig3c_cuckoo_switch(
    load_factors: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 0.95),
    n_buckets: int = 2048,
    slots: int = 8,
    n_packets: int = 2000,
    seed: int = 5,
) -> Sweep:
    sweep = Sweep("fig3c", "load factor")
    capacity = n_buckets * slots
    for alpha in load_factors:
        # The resident keys: make_flows(n, seed) is a prefix of any
        # larger population.  Traffic is restricted to them.
        flows = make_flows(int(alpha * capacity), seed)
        fg = FlowGenerator(seed=seed + 1, flows=flows)
        trace = fg.trace(n_packets)
        # One fill per point; every mode probes its own copy.
        filled = CuckooSwitchNF(
            BpfRuntime(), n_buckets=n_buckets, slots_per_bucket=slots
        )
        filled.populate(f.key_int for f in flows)
        for mode in ALL_MODES:
            rt = BpfRuntime(mode=mode, seed=seed)
            nf = CuckooSwitchNF(rt, n_buckets=n_buckets, slots_per_bucket=slots)
            nf.table = filled.table.copy()
            rt.cycles.reset()
            result = _measure(nf, trace)
            sweep.add(_point(alpha, mode, result, load=nf.load_factor))
    return sweep


# ---------------------------------------------------------------------------
# Fig. 3(d): NitroSketch vs update probability
# ---------------------------------------------------------------------------

def fig3d_nitrosketch(
    probs: Sequence[float] = (1 / 64, 1 / 16, 1 / 4, 1 / 2, 1.0),
    depth: int = 8,
    n_packets: int = 2500,
    seed: int = 6,
) -> Sweep:
    sweep = Sweep("fig3d", "update probability")
    fg = FlowGenerator(n_flows=1024, seed=seed)
    trace = fg.trace(n_packets)
    for p in probs:
        for mode in ALL_MODES:
            rt = BpfRuntime(mode=mode, seed=seed)
            nf = NitroSketchNF(rt, depth=depth, update_prob=p)
            rt.cycles.reset()
            result = _measure(nf, trace)
            sweep.add(_point(p, mode, result))
    return sweep


# ---------------------------------------------------------------------------
# Fig. 3(e): Count-min sketch vs number of hash functions (case study 2)
# ---------------------------------------------------------------------------

def fig3e_countmin(
    depths: Sequence[int] = (1, 2, 4, 6, 8),
    n_packets: int = 2500,
    seed: int = 7,
) -> Sweep:
    sweep = Sweep("fig3e", "number of hash functions")
    fg = FlowGenerator(n_flows=1024, seed=seed)
    trace = fg.trace(n_packets)
    for depth in depths:
        for mode in ALL_MODES:
            rt = BpfRuntime(mode=mode, seed=seed)
            nf = CountMinNF(rt, depth=depth)
            rt.cycles.reset()
            result = _measure(nf, trace)
            sweep.add(_point(depth, mode, result))
    return sweep


# ---------------------------------------------------------------------------
# Fig. 3(f): time wheel vs slot granularity (case study 3)
# ---------------------------------------------------------------------------

def fig3f_timewheel(
    tick_ns_values: Sequence[int] = (250, 500, 1000, 2000, 4000),
    n_packets: int = 2000,
    pps: float = 1_000_000.0,
    seed: int = 8,
) -> Sweep:
    sweep = Sweep("fig3f", "slot granularity (ns)")
    fg = FlowGenerator(n_flows=1024, seed=seed)
    gap_ns = rate_to_inter_arrival_ns(pps)
    trace = fg.trace(n_packets, inter_arrival_ns=gap_ns)
    for tick in tick_ns_values:
        for mode in ALL_MODES:
            rt = BpfRuntime(mode=mode, seed=seed)
            nf = TimeWheelNF(rt, tick_ns=tick)
            rt.cycles.reset()
            result = _measure(nf, trace)
            sweep.add(_point(tick, mode, result, dequeued=nf.dequeued))
    return sweep


# ---------------------------------------------------------------------------
# Fig. 3(g): cuckoo filter vs load factor
# ---------------------------------------------------------------------------

def fig3g_cuckoo_filter(
    load_factors: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 0.95),
    n_buckets: int = 4096,
    slots: int = 4,
    n_packets: int = 2000,
    seed: int = 9,
) -> Sweep:
    sweep = Sweep("fig3g", "load factor")
    capacity = n_buckets * slots
    for alpha in load_factors:
        flows = make_flows(int(alpha * capacity), seed)
        fg = FlowGenerator(seed=seed + 1, flows=flows)
        trace = fg.trace(n_packets)
        filled = CuckooFilterNF(
            BpfRuntime(), n_buckets=n_buckets, slots_per_bucket=slots
        )
        filled.populate(f.key_int for f in flows)
        for mode in ALL_MODES:
            rt = BpfRuntime(mode=mode, seed=seed)
            nf = CuckooFilterNF(rt, n_buckets=n_buckets, slots_per_bucket=slots)
            nf.filter = filled.filter.copy()
            rt.cycles.reset()
            result = _measure(nf, trace)
            sweep.add(_point(alpha, mode, result, load=nf.load_factor))
    return sweep


# ---------------------------------------------------------------------------
# Fig. 3(h): Eiffel cFFS vs bitmap levels
# ---------------------------------------------------------------------------

def fig3h_eiffel(
    levels: Sequence[int] = (1, 2, 3, 4),
    n_packets: int = 2000,
    seed: int = 10,
) -> Sweep:
    sweep = Sweep("fig3h", "cFFS levels (64^level priorities)")
    fg = FlowGenerator(n_flows=1024, seed=seed)
    trace = fg.trace(n_packets)
    for lvl in levels:
        for mode in ALL_MODES:
            rt = BpfRuntime(mode=mode, seed=seed)
            nf = EiffelNF(rt, levels=lvl)
            rt.cycles.reset()
            result = _measure(nf, trace)
            sweep.add(_point(lvl, mode, result))
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
    sweep = Sweep(name, "default configuration")
    fg = FlowGenerator(
        n_flows=1024,
        seed=seed,
        distribution="zipf" if name == "heavykeeper" else "uniform",
    )
    trace = fg.trace(n_packets)
    for mode in ALL_MODES:
        rt = BpfRuntime(mode=mode, seed=seed)
        if name == "efd":
            nf = EfdLoadBalancerNF(rt)
            nf.bind_flows(
                (f.key_int for f in fg.flows), lambda k: k % nf.table.n_targets
            )
        elif name == "tss":
            nf = TssClassifierNF(rt)
            nf.install_rules(make_rules_for_flows(fg.flows[:512]))
        elif name == "heavykeeper":
            nf = HeavyKeeperNF(rt)
        elif name == "vbf":
            nf = VbfNF(rt)
            for i, f in enumerate(fg.flows):
                nf.add_member(f.key_int, i % nf.vbf.n_sets)
        else:
            raise ValueError(f"unknown NF {name!r}")
        rt.cycles.reset()
        result = _measure(nf, trace)
        sweep.add(_point(0.0, mode, result))
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


def fig7_apps(
    n_packets: int = 2500,
    seed: int = 14,
    apps: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """Origin vs eNetSTL-integrated builds of the four real projects.

    Returns app -> {"origin_pps", "enetstl_pps", "improvement"}.
    ``apps`` restricts to a subset (the parallel runner shards on it).
    """
    from ..apps import ALL_APPS

    selected = ALL_APPS if apps is None else {
        name: ALL_APPS[name] for name in apps
    }
    out: Dict[str, Dict[str, float]] = {}
    for app_name, app_cls in selected.items():
        fg = FlowGenerator(n_flows=1024, seed=seed, distribution="zipf")
        trace = fg.trace(n_packets)
        results = {}
        for integrated in (False, True):
            app = app_cls(integrated=integrated, seed=seed)
            result = _measure(app, trace)
            results["enetstl" if integrated else "origin"] = result.pps
        out[app_name] = {
            "origin_pps": results["origin"],
            "enetstl_pps": results["enetstl"],
            "improvement": results["enetstl"] / results["origin"] - 1.0,
        }
    return out


IR_BACKENDS = ("interp", "fused")


def fig7_apps_ir(
    n_packets: int = 2500,
    seed: int = 14,
    apps: Optional[Sequence[str]] = None,
    backends: Sequence[str] = IR_BACKENDS,
) -> Dict[str, Dict[str, float]]:
    """Fig. 7 measured end-to-end: the verified-IR app ports replayed
    through both execution backends (interp / fused).

    Unlike :func:`fig7_apps` — which *models* the component swap with
    cycle constants — this runs the actual pipelines and reports
    wall-clock packets/s per backend plus the modeled cycles/packet
    (bit-identical across backends, asserted here: any parity break is
    an experiment failure, not a data point).

    Returns app -> {"<backend>_pps", ..., "fused_speedup",
    "cycles_per_packet", "verdicts"}.
    """
    import time as _time

    from ..apps.ir import IR_APP_NAMES, app_nf, ir_registry

    selected = IR_APP_NAMES if apps is None else tuple(apps)
    out: Dict[str, Dict[str, float]] = {}
    for app_name in selected:
        fg = FlowGenerator(n_flows=1024, seed=seed, distribution="zipf")
        trace = fg.trace(n_packets)
        row: Dict[str, float] = {}
        witnesses = {}
        for backend in backends:
            registry = ir_registry(seed)
            nf = app_nf(
                app_name, backend=backend, seed=seed, registry=registry
            )
            t0 = _time.perf_counter()
            nf.process_batch(trace)
            elapsed = _time.perf_counter() - t0
            row[f"{backend}_pps"] = n_packets / elapsed
            witnesses[backend] = (
                tuple(nf.returns),
                nf.rt.cycles.total,
                nf.stats.insn_cycles,
            )
        first = witnesses[backends[0]]
        for backend in backends[1:]:
            if witnesses[backend] != first:
                raise AssertionError(
                    f"{app_name}: backend {backend!r} broke parity"
                )
        row["cycles_per_packet"] = first[1] / n_packets
        if "interp" in backends:
            for backend in backends:
                row[f"{backend}_speedup"] = (
                    row[f"{backend}_pps"] / row["interp_pps"]
                )
        returns = first[0]
        row["verdicts"] = {
            str(r0): returns.count(r0) for r0 in sorted(set(returns))
        }
        out[app_name] = row
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
