"""Static-analysis CLI: ``python -m repro.ebpf.verify``.

Verifies IR programs — the bundled examples of :mod:`repro.ebpf.progs`
or a textual-IR file (:mod:`repro.ebpf.asm`) — and reports what the
range-aware verifier proved:

- a disasm-interleaved listing with per-instruction range facts
  (``--facts``; on by default for a single program),
- rejection diagnostics with the offending path (``--explain``),
- a JSON report of verifier stats: states explored, states pruned,
  checks elided, loops bounded/widened and fixpoint iterations
  (``--json``); ``--widen off`` restores the seed verifier's per-trip
  loop enumeration and ``--widen always`` force-widens every back-edge
  target (the precision-ablation modes of ``bench_widening.py``),
- the compiled backend (``--bench``): every accepted program is
  fused as a one-stage chain (:mod:`repro.ebpf.fuse`) and replayed on
  a deterministic trace against the interpreter (see ``docs/JIT.md``),
- chain fusion (``--chains``): every bundled NF chain combination is
  fused into one closure and replayed the same way.

Programs and chains share one ``compiled`` report: it pins
bit-identical verdicts, VM stats, and cycle accounting, and records
the unrolled loops, how many kfuncs were inlined and header loads
forwarded, how many kfunc hashes moved into the per-batch hash
prologue, and whether the fused loop still encodes each packet.

``--strict`` exits non-zero when any bundled program's verdict differs
from its expected accept/reject or an accepted program elides zero
checks it was expected to elide — the CI ``verify-smoke`` contract.
Under ``--bench`` and ``--chains`` a fuse failure or an interp/fused
divergence is also an unexpected result.  Their JSON reports carry a
``caches`` block (:func:`repro.ebpf.fuse.cache_info`) so CI can assert
cache hits instead of silently recompiling.

Examples::

    python -m repro.ebpf.verify --list
    python -m repro.ebpf.verify --program pkt_guarded_read
    python -m repro.ebpf.verify --asm prog.s --explain
    python -m repro.ebpf.verify --json --strict
    python -m repro.ebpf.verify --bench --strict
    python -m repro.ebpf.verify --chains --json --strict
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Any, Dict, List, Optional

from .asm import AsmError, assemble
from .disasm import disassemble_one
from .insn import Program
from .kfunc_meta import default_registry
from .progs import ProgCase, bundled_cases, get_case
from .verifier import VerifiedProgram, Verifier, VerifierError


def _verify_one(
    prog: Program,
    verifier: Verifier,
) -> Dict[str, Any]:
    """Run one program through the verifier; normalized result record."""
    try:
        vp = verifier.verify(prog)
    except VerifierError as exc:
        return {
            "name": prog.name,
            "verdict": "reject",
            "error": str(exc),
            "error_pc": exc.pc,
            "explain": exc.explain(),
        }
    return {
        "name": prog.name,
        "verdict": "accept",
        "states_explored": vp.stats.states_explored,
        "states_pruned": vp.stats.states_pruned,
        "checks_elided": vp.stats.checks_elided,
        "loops_bounded": vp.stats.loops_bounded,
        "loops_widened": vp.stats.loops_widened,
        "fixpoint_iters": vp.stats.fixpoint_iters,
        "max_trip_count": vp.stats.max_trip_count,
        "safe_mem": sorted(vp.annotations.safe_mem),
        "safe_div": sorted(vp.annotations.safe_div),
        "loop_bounds": {str(k): v for k, v in sorted(
            vp.annotations.loop_bounds.items())},
        "loop_invariants": {str(k): inv.trip_bound for k, inv in sorted(
            vp.annotations.loop_invariants.items())},
        "_verified": vp,
    }


#: Parity replay: packets per program or chain, and the trace seed.
_CHAIN_PACKETS = 96
_CHAIN_SEED = 20260809


def _chain_trace(n: int, seed: int) -> List[Any]:
    """Deterministic synthetic 5-tuple trace for the parity runs."""
    from ..net.packet import Packet

    rng = random.Random(seed)
    return [
        Packet(
            src_ip=rng.getrandbits(32),
            dst_ip=rng.getrandbits(32),
            src_port=rng.getrandbits(16),
            dst_port=rng.getrandbits(16),
            proto=rng.choice((6, 17)),
            size=rng.randint(64, 1500),
            timestamp_ns=rng.getrandbits(40),
        )
        for _ in range(n)
    ]


def _chain_report(verified: List[VerifiedProgram]) -> Dict[str, Any]:
    """Fuse one program chain (one program is a chain of one) and replay
    it on both the interpreted and the fused backend; bit-for-bit
    observable compare."""
    from ..net.irnf import IrChainNf
    from .fuse import FuseError, fuse_chain
    from .progs import runnable_registry
    from .runtime import BpfRuntime

    t0 = time.perf_counter()
    try:
        fused = fuse_chain(runnable_registry(0), verified)
    except FuseError as exc:
        return {"error": str(exc)}
    out: Dict[str, Any] = {
        "compile_ms": round((time.perf_counter() - t0) * 1e3, 3),
        "n_nodes": fused.n_nodes,
        "unrolled": {
            name: {str(pc): n for pc, n in sorted(loops.items())}
            for name, loops in fused.unrolled.items()
        },
        "inlined_kfuncs": fused.inlined_kfuncs,
        "forwarded_loads": fused.forwarded_loads,
        "hoisted_calls": fused.hoisted_calls,
        "encodes_packet": fused.encodes_packet,
    }
    pkts = _chain_trace(_CHAIN_PACKETS, _CHAIN_SEED)
    observed = {}
    for backend in ("interp", "fused"):
        rt = BpfRuntime()
        nf = IrChainNf(
            rt, verified, registry=runnable_registry(0), backend=backend
        )
        actions = nf.process_batch(pkts)
        observed[backend] = (
            tuple(nf.returns),
            nf.stats.steps,
            nf.stats.checks_performed,
            nf.stats.checks_elided,
            nf.stats.insn_cycles,
            nf.stats.check_cycles,
            rt.cycles.total,
            tuple(sorted((c.name, v) for c, v in
                         rt.cycles.snapshot().by_category.items())),
        )
        out[backend] = {
            "actions": dict(sorted(actions.items())),
            "steps": nf.stats.steps,
            "checks_performed": nf.stats.checks_performed,
            "checks_elided": nf.stats.checks_elided,
            "cycles": rt.cycles.total,
        }
    out["parity"] = observed["interp"] == observed["fused"]
    return out


def _print_compiled(label: str, cr: Dict[str, Any]) -> None:
    """One summary line for a fused program or chain."""
    if "error" in cr:
        print(f"FUSE FAIL  {label}: {cr['error']}")
        return
    unrolled = "".join(
        f", unrolled {name} pc {pc} x{n}"
        for name, loops in cr["unrolled"].items()
        for pc, n in loops.items()
    )
    verdict = "parity OK" if cr["parity"] else "PARITY MISMATCH"
    print(
        f"FUSED   {label}  ({cr['n_nodes']} nodes{unrolled}, "
        f"{cr['inlined_kfuncs']} kfuncs inlined, "
        f"{cr['forwarded_loads']} header loads forwarded, "
        f"{cr['hoisted_calls']} hashes hoisted, "
        f"encode {'kept' if cr['encodes_packet'] else 'elided'}, "
        f"{cr['fused']['cycles']} cyc; {verdict})"
    )


def _compiled_problem(label: str, cr: Dict[str, Any]) -> Optional[str]:
    """Why a compiled report is an unexpected result, or None."""
    if "error" in cr:
        return f"{label}: fuse failed: {cr['error']}"
    if not cr["parity"]:
        return f"{label}: interp/fused parity mismatch"
    return None


def _print_facts(prog: Program, vp: Optional[VerifiedProgram],
                 facts: Dict[int, List[str]]) -> None:
    """Disassembly interleaved with the verifier's per-insn range facts."""
    ann = vp.annotations if vp is not None else None
    print(f"; program {prog.name} ({len(prog)} insns)")
    for i, insn in enumerate(prog):
        tags = []
        if ann is not None:
            if i in ann.safe_mem:
                tags.append("mem-check elided")
            if i in ann.safe_div:
                tags.append("div-check elided")
            if i in ann.loop_bounds:
                tags.append(f"back-edge x{ann.loop_bounds[i]}")
            if i in ann.loop_invariants:
                tags.append(
                    "widened header, trips <= "
                    f"{ann.loop_invariants[i].trip_bound}"
                )
        tag = f"   ; {', '.join(tags)}" if tags else ""
        print(f"{i:4d}: {disassemble_one(insn)}{tag}")
        for state_text in facts.get(i, []):
            print(f"      | {state_text}")
    print()


def _print_result(result: Dict[str, Any], case: Optional[ProgCase],
                  explain: bool) -> None:
    name = result["name"]
    if result["verdict"] == "accept":
        stats = (
            f"{result['states_explored']} states, "
            f"{result['checks_elided']} checks elided, "
            f"{result['loops_bounded']} loops bounded"
        )
        if result.get("loops_widened"):
            stats += (
                f", {result['loops_widened']} widened "
                f"({result['fixpoint_iters']} fixpoint iters)"
            )
        expected = "" if case is None or case.accept else "  [UNEXPECTED]"
        print(f"ACCEPT  {name}  ({stats}){expected}")
    else:
        expected = "" if case is None or not case.accept else "  [UNEXPECTED]"
        print(f"REJECT  {name}: {result['error']}{expected}")
        if explain:
            for line in result["explain"].splitlines()[1:]:
                print(f"        {line}")


def _unexpected(result: Dict[str, Any], case: ProgCase) -> Optional[str]:
    """Why this result violates the case's contract, or None."""
    accepted = result["verdict"] == "accept"
    if accepted != case.accept:
        want = "accept" if case.accept else "reject"
        return f"{case.name}: expected {want}, got {result['verdict']}"
    if not accepted and case.reject_match and (
        case.reject_match not in result["error"]
    ):
        return (
            f"{case.name}: rejection {result['error']!r} does not mention "
            f"{case.reject_match!r}"
        )
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ebpf.verify",
        description="Verify eBPF-IR programs with the range-aware verifier.",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list bundled example programs and exit",
    )
    parser.add_argument(
        "--program", action="append", default=None, metavar="NAME",
        help="verify a bundled program by name (repeatable; default: all)",
    )
    parser.add_argument(
        "--asm", metavar="FILE",
        help="assemble and verify a textual-IR file ('-' for stdin)",
    )
    parser.add_argument(
        "--facts", action="store_true",
        help="print disasm interleaved with per-insn range facts "
             "(default when verifying a single program)",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="print full rejection diagnostics (path + abstract state)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit a JSON report instead of text",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on any unexpected accept/reject or a bundled "
             "accept that elides no checks where elision is expected",
    )
    parser.add_argument(
        "--max-states", type=int, default=None,
        help="override the verifier's state-exploration limit",
    )
    parser.add_argument(
        "--widen", choices=("auto", "always", "off"), default="auto",
        help="loop widening mode: 'auto' widens on demand, 'always' "
             "widens every back-edge target (precision ablation), 'off' "
             "restores the per-trip enumeration of the seed verifier",
    )
    parser.add_argument(
        "--bench", action="store_true",
        help="fuse every accepted program as a one-stage chain and "
             "replay it against the interpreter (bit-identical parity "
             "report)",
    )
    parser.add_argument(
        "--chains", action="store_true",
        help="fuse every bundled NF chain combination and replay it "
             "against the interpreted chain (bit-identical parity report)",
    )
    args = parser.parse_args(argv)
    if args.max_states is not None and args.max_states < 1:
        print("error: --max-states must be at least 1", file=sys.stderr)
        return 2

    if args.list:
        for case in bundled_cases():
            verdict = "accept" if case.accept else "reject"
            print(f"{case.name:32s} {verdict:7s} {case.summary}")
        return 0

    registry = default_registry()
    kwargs: Dict[str, Any] = {"collect_facts": True, "widen": args.widen}
    if args.max_states is not None:
        kwargs["max_states"] = args.max_states
    verifier = Verifier(registry, **kwargs)

    if args.asm:
        try:
            if args.asm == "-":
                text = sys.stdin.read()
            else:
                with open(args.asm, encoding="utf-8") as fh:
                    text = fh.read()
        except OSError as exc:
            print(f"error: cannot read {args.asm}: {exc.strerror}",
                  file=sys.stderr)
            return 2
        except UnicodeDecodeError:
            print(f"error: {args.asm} is not UTF-8 text", file=sys.stderr)
            return 2
        try:
            prog = assemble(text, name=args.asm if args.asm != "-" else "stdin")
        except AsmError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return 2
        result = _verify_one(prog, verifier)
        vp = result.pop("_verified", None)
        if args.bench and vp is not None:
            result["compiled"] = _chain_report([vp])
        if args.json:
            print(json.dumps(result, indent=2))
        else:
            _print_facts(prog, vp, getattr(vp, "annotations", None).facts
                         if vp is not None else {})
            _print_result(result, None, args.explain or True)
            if "compiled" in result:
                _print_compiled(prog.name, result["compiled"])
        return 0 if result["verdict"] == "accept" else 1

    if args.program:
        try:
            cases = [get_case(name) for name in args.program]
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    else:
        cases = list(bundled_cases())
    show_facts = args.facts or len(cases) == 1

    report: Dict[str, Any] = {"programs": [], "unexpected": []}
    for case in cases:
        result = _verify_one(case.prog, verifier)
        vp = result.pop("_verified", None)
        result["expected"] = "accept" if case.accept else "reject"
        problem = _unexpected(result, case)
        if problem is None and case.accept and vp is not None:
            # Elision regression guard: every accepted bundled program
            # proves at least the checks its listing marks elidable.
            if vp.stats.checks_elided == 0 and (
                case.name not in ("loop_counted", "range_dead_branch")
            ):
                problem = f"{case.name}: accepted but elided zero checks"
        if problem is not None:
            report["unexpected"].append(problem)
        if args.bench and vp is not None:
            result["compiled"] = _chain_report([vp])
            problem = _compiled_problem(case.name, result["compiled"])
            if problem is not None:
                report["unexpected"].append(problem)
        report["programs"].append(result)
        if not args.json:
            if show_facts:
                _print_facts(case.prog, vp,
                             vp.annotations.facts if vp is not None else {})
            _print_result(result, case, args.explain)
            if "compiled" in result:
                _print_compiled(case.name, result["compiled"])

    if args.chains:
        from .progs import bundled_chains

        report["chains"] = []
        for combo in bundled_chains():
            label = " -> ".join(combo)
            cr = {"chain": list(combo), **_chain_report(
                [verifier.verify(get_case(name).prog) for name in combo]
            )}
            report["chains"].append(cr)
            problem = _compiled_problem(f"chain {label}", cr)
            if problem is not None:
                report["unexpected"].append(problem)
            if not args.json:
                _print_compiled(label, cr)

    if args.bench or args.chains:
        from .fuse import cache_info as fuse_cache_info

        report["caches"] = {"fused": fuse_cache_info()}
        if not args.json:
            fc = report["caches"]["fused"]
            print(
                f"caches: fused {fc['entries']} entries "
                f"({fc['hits']} hits/{fc['misses']} misses)"
            )

    n = len(report["programs"])
    accepted = sum(1 for r in report["programs"] if r["verdict"] == "accept")
    report["summary"] = {
        "programs": n,
        "accepted": accepted,
        "rejected": n - accepted,
        "states_explored": sum(
            r.get("states_explored", 0) for r in report["programs"]),
        "states_pruned": sum(
            r.get("states_pruned", 0) for r in report["programs"]),
        "checks_elided": sum(
            r.get("checks_elided", 0) for r in report["programs"]),
        "loops_bounded": sum(
            r.get("loops_bounded", 0) for r in report["programs"]),
        "loops_widened": sum(
            r.get("loops_widened", 0) for r in report["programs"]),
        "fixpoint_iters": sum(
            r.get("fixpoint_iters", 0) for r in report["programs"]),
        "unexpected": len(report["unexpected"]),
    }
    if args.chains:
        report["summary"]["chains"] = len(report["chains"])
        report["summary"]["chains_parity_ok"] = sum(
            1 for c in report["chains"] if c.get("parity"))
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        s = report["summary"]
        print(
            f"\n{s['programs']} programs: {s['accepted']} accepted, "
            f"{s['rejected']} rejected; {s['states_explored']} states "
            f"explored ({s['states_pruned']} pruned), "
            f"{s['checks_elided']} checks elided, "
            f"{s['loops_bounded']} loops bounded, "
            f"{s['loops_widened']} widened"
        )
        for problem in report["unexpected"]:
            print(f"UNEXPECTED: {problem}", file=sys.stderr)
    if args.strict and report["unexpected"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
