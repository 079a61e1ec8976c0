"""Component microbenchmarks: Table 2 and Fig. 6.

Measures the average simulated cycles per *operation* (packet parsing
excluded, as in §6.4) for each eNetSTL component against its pure-eBPF
equivalent, plus the deliberately low-level interface variants the
Fig. 6 ablation compares.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.algorithms.bitops import BitOps
from ..core.algorithms.hashing import HashAlgos
from ..core.algorithms.simd import SimdOps
from ..core.memwrap import MemoryWrapper, NodeProxy
from ..core.structures.list_buckets import ListBuckets
from ..core.structures.random_pool import GeoRandomPool, RandomPool
from ..datastructs.countmin import CountMinSketch
from ..ebpf.cost_model import ExecMode
from ..ebpf.runtime import BpfRuntime
from .results import ComponentResult

N_OPS = 500


def _cycles_per_op(fn, rt: BpfRuntime, n_ops: int = N_OPS) -> float:
    rt.cycles.reset()
    for i in range(n_ops):
        fn(i)
    return rt.cycles.total / n_ops


def _rt(mode: ExecMode) -> BpfRuntime:
    return BpfRuntime(mode=mode, seed=42)


def measure_component(component: str, mode: ExecMode) -> float:
    """Average cycles per operation for one component in one mode."""
    rt = _rt(mode)
    if component == "ffs":
        bits = BitOps(rt)
        return _cycles_per_op(lambda i: bits.ffs(i | 1), rt)
    if component == "popcnt":
        bits = BitOps(rt)
        return _cycles_per_op(lambda i: bits.popcnt(i), rt)
    if component == "find_simd":
        simd = SimdOps(rt)
        arr = list(range(8))
        return _cycles_per_op(lambda i: simd.find(arr, i % 8), rt)
    if component == "reduce_simd":
        simd = SimdOps(rt)
        arr = [5, 3, 8, 1, 9, 2, 7, 4]
        return _cycles_per_op(lambda i: simd.reduce_min(arr), rt)
    if component == "hw_hash":
        algos = HashAlgos(rt)
        return _cycles_per_op(lambda i: algos.hw_hash_crc(i), rt)
    if component == "hash_cnt8":
        algos = HashAlgos(rt)
        sketch = CountMinSketch(8, 512)
        return _cycles_per_op(lambda i: algos.hash_cnt(sketch, i), rt)
    if component == "random_pool":
        # In eBPF the pool's draw is the bpf_get_prandom_u32 helper.
        pool = RandomPool(rt)
        return _cycles_per_op(lambda i: pool.draw(), rt)
    if component == "geo_pool":
        if mode == ExecMode.PURE_EBPF:
            # The eBPF equivalent is a uniform draw plus a threshold
            # test; only the draw (the prandom helper) is charged.
            return _cycles_per_op(lambda i: rt.prandom_u32(), rt)
        pool = GeoRandomPool(rt, p=0.25)
        return _cycles_per_op(lambda i: pool.draw(), rt)
    if component == "list_buckets":
        lb = ListBuckets(rt, 64)
        def op(i):
            lb.insert_front(i % 64, i)
            lb.pop_front(i % 64)
        return _cycles_per_op(op, rt)
    if component == "memwrap_traverse":
        wrapper = MemoryWrapper(rt)   # refuses eBPF: no equivalent (P1)
        proxy = NodeProxy()
        head = wrapper.node_alloc(1, 1, 8)
        wrapper.set_owner(proxy, head)
        node = wrapper.node_alloc(1, 1, 8)
        wrapper.set_owner(proxy, node)
        wrapper.node_connect(head, 0, node, 0)
        wrapper.node_release(head)
        wrapper.node_release(node)
        def op(i):
            nxt = wrapper.get_next(head, 0)
            if nxt is not None:
                wrapper.node_release(nxt)
        return _cycles_per_op(op, rt)
    raise ValueError(f"unknown component {component!r}")


#: Components with a measurable pure-eBPF baseline (Table 2 rows).
TABLE2_COMPONENTS = (
    "ffs",
    "popcnt",
    "find_simd",
    "reduce_simd",
    "hw_hash",
    "hash_cnt8",
    "random_pool",
    "geo_pool",
    "list_buckets",
)


def table2_results() -> List[ComponentResult]:
    """Cycles/op for every component in every applicable mode."""
    out: List[ComponentResult] = []
    for component in TABLE2_COMPONENTS:
        for mode in (ExecMode.PURE_EBPF, ExecMode.ENETSTL, ExecMode.KERNEL):
            out.append(
                ComponentResult(
                    component=component,
                    variant=mode.value,
                    cycles_per_op=measure_component(component, mode),
                )
            )
    for mode in (ExecMode.ENETSTL, ExecMode.KERNEL):
        out.append(
            ComponentResult(
                component="memwrap_traverse",
                variant=mode.value,
                cycles_per_op=measure_component("memwrap_traverse", mode),
            )
        )
    return out


def table2_improvements() -> Dict[str, float]:
    """eNetSTL-over-eBPF speedup per component (Table 2's ↑ column)."""
    results = table2_results()
    by_key = {(r.component, r.variant): r.cycles_per_op for r in results}
    out = {}
    for component in TABLE2_COMPONENTS:
        ebpf = by_key[(component, "ebpf")]
        enet = by_key[(component, "enetstl")]
        out[component] = ebpf / enet - 1.0
    return out


# ---------------------------------------------------------------------------
# Fig. 6: high-level vs per-instruction (low-level) interfaces
# ---------------------------------------------------------------------------

def fig6_interface_comparison() -> Dict[str, Dict[str, float]]:
    """Cycles/op for COMP and HASH under high- and low-level interfaces.

    The low-level variants wrap individual SIMD instructions as kfuncs
    (Listing 1/2's counter-examples): every call pays register
    load/store round trips through eBPF memory.
    """
    out: Dict[str, Dict[str, float]] = {}

    rt = _rt(ExecMode.ENETSTL)
    simd = SimdOps(rt)
    arr = list(range(8))
    high = _cycles_per_op(lambda i: simd.find(arr, i % 8), rt)
    low = _cycles_per_op(lambda i: simd.find_lowlevel(arr, i % 8), rt)
    out["COMP"] = {"high": high, "low": low, "degradation": 1.0 - high / low}

    rt = _rt(ExecMode.ENETSTL)
    algos = HashAlgos(rt)
    sketch = CountMinSketch(8, 512)
    high = _cycles_per_op(lambda i: algos.hash_cnt(sketch, i), rt)
    low = _cycles_per_op(lambda i: algos.hash_cnt_lowlevel(sketch, i), rt)
    out["HASH"] = {"high": high, "low": low, "degradation": 1.0 - high / low}
    return out
