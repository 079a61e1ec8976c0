"""Whole-pipeline fusion benchmark (PR 6's acceptance numbers).

Not a pytest module — run it directly:

    PYTHONPATH=src python benchmarks/bench_fusion.py [--quick] [--out PATH]

Measures, and self-asserts, the PR 6 execution stack: NF *chains*
(classifier -> count-min -> Maglev) run as

1. ``interp`` — the interpreted chain, one fresh VM per stage per
   packet (the PR 1–4 data plane),
2. ``fused``  — PR 6's chain fuser (:mod:`repro.ebpf.fuse`): the whole
   chain *and* the batch loop in one generated closure with early-exit
   codegen, burned-in constants, and inlined kfuncs,

single-core (``IrChainNf.process_batch``) and at 4 cores through
:class:`RssDispatcher`.  Every measured configuration carries a
``bit_identical: true`` witness — identical verdict sequences, cycle
totals, error counters, and accounting versus the interpreted chain —
both clean and under a :mod:`repro.faults` chaos schedule.

Results land in ``BENCH_PR6.json`` next to the repo root; the CI
``fusion-smoke`` job runs the ``--quick`` variant and re-checks the
self-assertions.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.analysis.hostmeta import host_metadata
from repro.ebpf import fuse
from repro.ebpf.progs import get_case, runnable_registry
from repro.ebpf.runtime import BpfRuntime
from repro.ebpf.verifier import Verifier
from repro.faults import FaultPlan
from repro.net.flowgen import FlowGenerator
from repro.net.irnf import IrChainNf
from repro.net.multicore import RssDispatcher, chain_nf_factory

#: The measured chain configurations (the 4-NF chain re-enters the
#: count-min stage — sketches are the NF most often stacked).
CHAINS = {
    "1nf": ("nf_classifier",),
    "2nf": ("nf_classifier", "nf_cm_sketch"),
    "3nf": ("nf_classifier", "nf_cm_sketch", "nf_maglev_pick"),
    "4nf": ("nf_classifier", "nf_cm_sketch", "nf_cm_sketch",
            "nf_maglev_pick"),
}

BACKENDS = ("interp", "fused")

#: Timing repetitions per configuration (fresh state each; min wins).
REPS = 3

N_CORES = 4

#: The chaos schedule every configuration must also stay bit-identical
#: under (packet faults + helper/map errors; seed-pinned).
CHAOS = FaultPlan(
    seed=77,
    drop_rate=0.02,
    corrupt_rate=0.03,
    truncate_rate=0.02,
    dup_rate=0.02,
    helper_rate=0.03,
    map_full_rate=0.03,
)


def _progs(combo):
    return [get_case(name).prog for name in combo]


def _trace(n_packets: int):
    fg = FlowGenerator(n_flows=64, seed=3)
    return list(fg.trace(n_packets))


# -- single-core ------------------------------------------------------------


def _timed_single(combo, backend, trace):
    """Best-of-REPS wall-clock for one chain backend: (pps, witness).

    Each repetition gets a fresh runtime + registry + NF so kfunc state
    (sketch counters, PRNG stream) starts identical; the witness is the
    same every rep and only the clock varies.
    """
    best = float("inf")
    witness = None
    for _ in range(REPS):
        rt = BpfRuntime(seed=1)
        nf = IrChainNf(rt, _progs(combo), registry=runnable_registry(1),
                       backend=backend)
        t0 = time.perf_counter()
        nf.process_batch(trace)
        dt = time.perf_counter() - t0
        best = min(best, dt)
        rep_witness = (tuple(nf.returns), rt.cycles.total)
        assert witness is None or witness == rep_witness, (
            f"{combo}/{backend}: repetitions diverged"
        )
        witness = rep_witness
    return len(trace) / best, witness


# -- multicore --------------------------------------------------------------


def _dispatcher_witness(result, dispatcher):
    return (
        result.accounting(),
        tuple(sorted(result.errors.items())),
        result.total_cycles,
        tuple(sorted((c.name, v) for c, v in result.by_category.items())),
        tuple(tuple(nf.returns) for nf in dispatcher.nfs),
    )


def _timed_multicore(combo, backend, trace, faults=None):
    best = float("inf")
    witness = None
    for _ in range(REPS):
        disp = RssDispatcher(
            chain_nf_factory(_progs(combo), backend=backend),
            n_cores=N_CORES,
            faults=faults,
        )
        t0 = time.perf_counter()
        result = disp.run(trace)
        dt = time.perf_counter() - t0
        best = min(best, dt)
        rep_witness = _dispatcher_witness(result, disp)
        assert witness is None or witness == rep_witness, (
            f"{combo}/{backend}/{N_CORES}c: repetitions diverged"
        )
        witness = rep_witness
    return len(trace) / best, witness


# -- suites -----------------------------------------------------------------


def fusion_suite(n_packets: int, bar_vs_interp: float) -> dict:
    trace = _trace(n_packets)
    out = {
        "n_packets": n_packets,
        "n_cores": N_CORES,
        "min_fused_over_interp": bar_vs_interp,
        "chains": {},
    }
    for label, combo in CHAINS.items():
        reg = runnable_registry(0)
        verifier = Verifier(reg)
        verified = [verifier.verify(p) for p in _progs(combo)]
        t0 = time.perf_counter()
        fused = fuse.fuse_chain(reg, verified)
        compile_ms = (time.perf_counter() - t0) * 1000

        entry = {
            "chain": list(combo),
            "compile_ms": round(compile_ms, 3),
            "fused_nodes": fused.n_nodes,
            "inlined_kfuncs": fused.inlined_kfuncs,
            "single_core": {},
            "multicore": {},
        }

        # Single-core: both backends, witness-checked against interp.
        pps, witnesses = {}, {}
        for backend in BACKENDS:
            pps[backend], witnesses[backend] = _timed_single(
                combo, backend, trace)
        assert witnesses["fused"] == witnesses["interp"], (
            f"{label}: fused chain diverged from interp")
        entry["single_core"] = {
            "interp_pps": round(pps["interp"]),
            "fused_pps": round(pps["fused"]),
            "fused_over_interp": round(pps["fused"] / pps["interp"], 3),
            "bit_identical": True,
            "cycle_total": witnesses["interp"][1],
        }

        # Multicore: clean timing plus an untimed chaos parity leg.
        mpps, mwit = {}, {}
        for backend in BACKENDS:
            mpps[backend], mwit[backend] = _timed_multicore(
                combo, backend, trace)
        assert mwit["fused"] == mwit["interp"], (
            f"{label}: {N_CORES}-core fused diverged from interp")
        _, chaos_i = _timed_multicore(combo, "interp", trace, faults=CHAOS)
        _, chaos_f = _timed_multicore(combo, "fused", trace, faults=CHAOS)
        assert chaos_f == chaos_i, (
            f"{label}: fused diverged from interp under chaos")
        entry["multicore"] = {
            "interp_pps": round(mpps["interp"]),
            "fused_pps": round(mpps["fused"]),
            "fused_over_interp": round(mpps["fused"] / mpps["interp"], 3),
            "bit_identical": True,
            "bit_identical_chaos": True,
        }
        out["chains"][label] = entry

    # The acceptance bar is pinned on the 3-NF chain.
    bar = out["chains"]["3nf"]["single_core"]
    assert bar["fused_over_interp"] >= bar_vs_interp, (
        f"3nf: fused {bar['fused_over_interp']}x over interp is below "
        f"the {bar_vs_interp}x acceptance bar"
    )
    return out


def cache_suite() -> dict:
    """Fused closures are cached per (registry, chain, elide, costs):
    building the same chain twice must hit, not recompile."""
    reg = runnable_registry(0)
    verifier = Verifier(reg)
    verified = [verifier.verify(p) for p in _progs(CHAINS["3nf"])]
    before = fuse.cache_info()
    first = fuse.fused_for(reg, verified)
    again = fuse.fused_for(reg, verified)
    after = fuse.cache_info()
    assert first is again, "fused cache returned a recompiled closure"
    assert after["hits"] > before["hits"], "fused cache recorded no hit"
    return {"before": before, "after": after, "hit_confirmed": True}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized run (fewer packets; relaxed speedup bars to "
             "absorb shared-runner timing noise)",
    )
    parser.add_argument("--packets", type=int, default=None)
    parser.add_argument(
        "--out",
        default=str(
            pathlib.Path(__file__).resolve().parent.parent / "BENCH_PR6.json"
        ),
    )
    args = parser.parse_args(argv)
    n_packets = args.packets or (1200 if args.quick else 6000)
    bar_vs_interp = 3.0 if args.quick else 4.0

    print(f"fusion suite ({n_packets} packets x {len(CHAINS)} chains x "
          f"{len(BACKENDS)} backends, single-core + {N_CORES} cores, "
          f"best of {REPS}) ...")
    fusion = fusion_suite(n_packets, bar_vs_interp)
    for label, d in fusion["chains"].items():
        s, m = d["single_core"], d["multicore"]
        print(f"  {label}: 1-core interp {s['interp_pps']:>7} -> "
              f"fused {s['fused_pps']:>7} pps "
              f"({s['fused_over_interp']:.2f}x interp)")
        print(f"       {N_CORES}-core interp {m['interp_pps']:>7} -> "
              f"fused {m['fused_pps']:>7} pps (chaos parity OK)")

    print("fused-cache suite ...")
    caches = cache_suite()

    payload = {
        "benchmark": "PR6 whole-pipeline fusion (chain + batch loop "
                     "in one closure)",
        "host": host_metadata(),
        "quick": args.quick,
        "fusion": fusion,
        "caches": caches,
    }
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {out}")
    bar = fusion["chains"]["3nf"]["single_core"]
    print(f"  3-NF chain: fused {bar['fused_over_interp']}x over interp "
          f"(bar: {bar_vs_interp}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
