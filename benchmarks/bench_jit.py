"""Compiled data-plane benchmark (PR 5's acceptance numbers).

Not a pytest module — run it directly:

    PYTHONPATH=src python benchmarks/bench_jit.py [--quick] [--out PATH]

Measures, and self-asserts, the PR 5 execution stack:

1. **Throughput** — the same trace through a one-stage ``IrChainNf``
   under both backends (``interp`` vs ``fused``, the compiled one) for
   the three real NF programs (classifier, count-min sketch, Maglev
   picker).  The compiled program must reach >= 2x interpreter
   packets/sec while staying *bit-identical*: same per-packet r0
   sequence, same runtime cycle total.  Compile cost and
   loop-unrolling metadata are recorded per program.
2. **Verification pruning** — the subsumption-pruned verifier vs
   ``prune=False`` on the eq-dispatch program family (switch-style
   arms sharing a long tail — the shape pruning exists for).  Pruning
   must explore strictly fewer states, finish faster at the largest
   size, and accept under a ``max_states`` budget the unpruned
   verifier exceeds — while producing identical proof tables.

Results land in ``BENCH_PR5.json`` next to the repo root; the CI
``jit-smoke`` job runs the ``--quick`` variant and re-checks the
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
from repro.ebpf.insn import Alu, Call, Exit, Imm, JmpIf, Mov, Program, R0, R6
from repro.ebpf.fuse import fuse_chain
from repro.ebpf.progs import get_case, runnable_registry
from repro.ebpf.runtime import BpfRuntime
from repro.ebpf.verifier import Verifier, VerifierError
from repro.net.flowgen import FlowGenerator
from repro.net.irnf import IrChainNf

#: The real NF programs the throughput claim is made on.
NF_PROGRAMS = ("nf_classifier", "nf_cm_sketch", "nf_maglev_pick")

#: Timing repetitions per backend (fresh NF each; min wall-clock wins).
REPS = 3


def _eq_dispatch_prog(k: int, tail_pad: int) -> Program:
    """Switch-style eq-chain whose arms share a long tail (the pruning
    benchmark family; mirrored in tests/ebpf/test_verifier.py)."""
    insns = [
        Call("bpf_get_prandom_u32"),
        Mov(R6, R0),
        Alu("and", R6, Imm(0xFF)),
    ]
    tail = 3 + k
    for i in range(k):
        insns.append(JmpIf("eq", R6, Imm(i + 1), tail))
    insns += [Mov(R0, R6)]
    insns += [Alu("add", R0, Imm(1)) for _ in range(tail_pad)]
    insns += [Alu("and", R0, Imm(3)), Exit()]
    return Program(insns, name=f"eq_dispatch_{k}_{tail_pad}")


def _timed_run(name: str, backend: str, trace):
    """Best-of-REPS wall-clock for one backend; returns (pps, witness).

    Each repetition gets a fresh runtime + NF so kfunc state (the
    sketch counters, the shared PRNG stream) starts identical — the
    witness (r0 sequence + cycle total) is therefore the same every
    rep, and only the clock varies.
    """
    best = float("inf")
    witness = None
    for _ in range(REPS):
        rt = BpfRuntime(seed=1)
        nf = IrChainNf(rt, [get_case(name).prog], seed=1, backend=backend)
        t0 = time.perf_counter()
        nf.process_batch(trace)
        dt = time.perf_counter() - t0
        best = min(best, dt)
        rep_witness = (tuple(nf.returns), rt.cycles.total)
        assert witness is None or witness == rep_witness, (
            f"{name}/{backend}: repetitions diverged"
        )
        witness = rep_witness
    return len(trace) / best, witness


def throughput_suite(n_packets: int, min_speedup: float) -> dict:
    fg = FlowGenerator(n_flows=64, seed=3)
    trace = list(fg.trace(n_packets))
    reg = runnable_registry(0)
    verifier = Verifier(reg)
    out = {"n_packets": n_packets, "min_speedup_required": min_speedup,
           "programs": {}}
    for name in NF_PROGRAMS:
        vp = verifier.verify(get_case(name).prog)
        t0 = time.perf_counter()
        compiled = fuse_chain(reg, [vp])
        compile_ms = (time.perf_counter() - t0) * 1000

        interp_pps, interp_witness = _timed_run(name, "interp", trace)
        fused_pps, fused_witness = _timed_run(name, "fused", trace)
        assert interp_witness == fused_witness, (
            f"{name}: compiled output diverged from interpreter"
        )
        speedup = fused_pps / interp_pps
        assert speedup >= min_speedup, (
            f"{name}: compiled speedup {speedup:.2f}x below the "
            f"{min_speedup}x acceptance bar"
        )
        out["programs"][name] = {
            "interp_pps": round(interp_pps),
            "fused_pps": round(fused_pps),
            "speedup": round(speedup, 3),
            "bit_identical": True,
            "cycle_total": interp_witness[1],
            "compile_ms": round(compile_ms, 3),
            "fused_nodes": compiled.n_nodes,
            "loops_unrolled": {str(pc): n for pc, n
                               in compiled.unrolled[name].items()},
            "checks_elided_per_packet": vp.stats.checks_elided,
        }
    return out


def pruning_suite() -> dict:
    reg = runnable_registry(0)
    out = {"family": "eq_dispatch (k arms, shared tail)", "sizes": {}}
    for k, pad in ((8, 16), (12, 24), (16, 32)):
        prog = _eq_dispatch_prog(k, pad)
        t0 = time.perf_counter()
        vp = Verifier(reg).verify(prog)
        pruned_ms = (time.perf_counter() - t0) * 1000
        t0 = time.perf_counter()
        vu = Verifier(reg, prune=False).verify(prog)
        unpruned_ms = (time.perf_counter() - t0) * 1000
        assert vp.annotations.safe_mem == vu.annotations.safe_mem
        assert vp.annotations.safe_div == vu.annotations.safe_div
        assert vp.stats.states_explored < vu.stats.states_explored, (
            f"k={k}: pruning explored no fewer states"
        )
        out["sizes"][f"k{k}_pad{pad}"] = {
            "pruned_ms": round(pruned_ms, 3),
            "unpruned_ms": round(unpruned_ms, 3),
            "time_speedup": round(unpruned_ms / pruned_ms, 3),
            "pruned_states": vp.stats.states_explored,
            "states_pruned": vp.stats.states_pruned,
            "unpruned_states": vu.stats.states_explored,
            "proofs_identical": True,
        }
    largest = out["sizes"]["k16_pad32"]
    assert largest["time_speedup"] > 1.0, (
        "pruning must be faster at the largest dispatch size"
    )

    # The budget demo: pruned fits where unpruned exceeds the limit.
    budget = 128
    prog = _eq_dispatch_prog(12, 24)
    vp = Verifier(reg, max_states=budget).verify(prog)
    try:
        Verifier(reg, prune=False, max_states=budget).verify(prog)
        raise AssertionError("unpruned verifier must exceed the budget")
    except VerifierError:
        pass
    out["budget_demo"] = {
        "max_states": budget,
        "pruned_accepts_with_states": vp.stats.states_explored,
        "unpruned_verdict": "program too complex (state limit exceeded)",
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized run (fewer packets; relaxed speedup bar to "
             "absorb shared-runner timing noise)",
    )
    parser.add_argument("--packets", type=int, default=None)
    parser.add_argument(
        "--out",
        default=str(
            pathlib.Path(__file__).resolve().parent.parent / "BENCH_PR5.json"
        ),
    )
    args = parser.parse_args(argv)
    n_packets = args.packets or (1500 if args.quick else 6000)
    min_speedup = 1.5 if args.quick else 2.0

    print(f"throughput suite ({n_packets} packets x {len(NF_PROGRAMS)} NFs, "
          f"best of {REPS}) ...")
    throughput = throughput_suite(n_packets, min_speedup)
    for name, d in throughput["programs"].items():
        print(f"  {name:>15}: interp {d['interp_pps']:>7} pps -> "
              f"fused {d['fused_pps']:>7} pps ({d['speedup']:.2f}x, "
              f"compile {d['compile_ms']:.2f}ms)")

    print("verification pruning suite ...")
    pruning = pruning_suite()
    for size, d in pruning["sizes"].items():
        print(f"  {size:>9}: {d['unpruned_ms']:.2f}ms / "
              f"{d['unpruned_states']} states -> {d['pruned_ms']:.2f}ms / "
              f"{d['pruned_states']} states ({d['time_speedup']:.2f}x)")

    payload = {
        "benchmark": "PR5 compiled data plane + subsumption-pruned verification",
        "host": host_metadata(),
        "quick": args.quick,
        "throughput": throughput,
        "verification_pruning": pruning,
    }
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {out}")
    worst = min(d["speedup"] for d in throughput["programs"].values())
    print(f"  worst-case compiled speedup: {worst}x (bar: {min_speedup}x)")
    print(f"  pruning at k16: "
          f"{pruning['sizes']['k16_pad32']['time_speedup']}x faster")
    return 0


if __name__ == "__main__":
    sys.exit(main())
