"""Apps CLI: run the verified-IR app pipelines from the command line.

The reproducible face of the Fig. 7 component-swap comparison::

    python -m repro.apps --list
    python -m repro.apps --verify                    # strict + fused stats
    python -m repro.apps --app katran --backend fused --packets 5000
    python -m repro.apps --app all --parity          # 2-backend witness
    python -m repro.apps --app katran --cores 4 --backend interp --json

``--backend {interp,fused}`` selects the execution backend; with
``--parity`` every app runs on both and any witness divergence
(verdicts, cycle ledger, VM stats) exits non-zero.  ``--cores N > 1``
replays through :class:`~repro.net.multicore.RssDispatcher` with
ntuple steering.  Host metadata (``cpu_count``, ``cpu_affinity``)
rides along in ``--json`` payloads like every PR 5+ bench.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ..analysis.__main__ import _int_at_least
from ..analysis.hostmeta import host_metadata
from ..net.flowgen import FlowGenerator
from .ir import (
    IR_APP_NAMES,
    app_nf,
    app_nf_factory,
    ir_registry,
    verify_app_chains,
)

BACKENDS = ("interp", "fused")


def _trace(args):
    gen = FlowGenerator(
        n_flows=args.flows,
        distribution="zipf",
        zipf_s=1.1,
        seed=args.seed,
    )
    return gen.trace(args.packets)


def _witness(nf):
    return (
        tuple(nf.returns),
        nf.rt.cycles.total,
        tuple(sorted((c.name, v) for c, v in nf.rt.cycles.breakdown().items())),
        nf.stats.insn_cycles,
        nf.stats.check_cycles,
    )


def _fused_stats(app: str):
    """What fusing ``app``'s chain did: kfuncs inlined, header loads
    forwarded, hashes hoisted into the per-batch prologue."""
    fused = app_nf(app, backend="fused")._fused
    return {
        "inlined_kfuncs": fused.inlined_kfuncs,
        "forwarded_loads": fused.forwarded_loads,
        "hoisted_calls": fused.hoisted_calls,
    }


def _run_single(app: str, backend: str, trace, seed: int):
    nf = app_nf(app, backend=backend, seed=seed, registry=ir_registry(seed))
    t0 = time.perf_counter()
    counts = nf.process_batch(trace)
    elapsed = time.perf_counter() - t0
    return {
        "app": app,
        "backend": backend,
        "cores": 1,
        "packets": len(trace),
        "pps": len(trace) / elapsed if elapsed > 0 else 0.0,
        "cycles_per_packet": nf.rt.cycles.total / max(1, len(trace)),
        "actions": dict(counts),
    }, _witness(nf)


def _run_multicore(app: str, backend: str, trace, seed: int, cores: int):
    from ..net.multicore import RssDispatcher

    disp = RssDispatcher(
        app_nf_factory(app, backend=backend, registry_seed=seed),
        n_cores=cores,
        steering="ntuple",
    )
    t0 = time.perf_counter()
    res = disp.run(trace)
    elapsed = time.perf_counter() - t0
    return {
        "app": app,
        "backend": backend,
        "cores": cores,
        "packets": res.packets_in,
        "pps": res.packets_in / elapsed if elapsed > 0 else 0.0,
        "cycles_per_packet": res.total_cycles / max(1, res.packets_in),
        "actions": dict(res.actions),
        "fully_accounted": res.is_fully_accounted,
    }, (dict(res.actions), res.total_cycles)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.apps",
        description="Run the Fig. 7 verified-IR app pipelines.",
    )
    parser.add_argument(
        "--app",
        choices=IR_APP_NAMES + ("all",),
        default="all",
        help="which app pipeline to run (default: all)",
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="fused",
        help="execution backend (default: fused)",
    )
    parser.add_argument(
        "--packets", type=_int_at_least("--packets", 1), default=2500,
        help="trace length",
    )
    parser.add_argument(
        "--flows", type=_int_at_least("--flows", 1), default=1024,
        help="Zipf flow population",
    )
    parser.add_argument("--seed", type=int, default=14)
    parser.add_argument(
        "--cores",
        type=_int_at_least("--cores", 1),
        default=1,
        help="replay multi-core via RssDispatcher when > 1",
    )
    parser.add_argument(
        "--parity",
        action="store_true",
        help="run every backend and require bit-identical witnesses",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="strict-verify all app stages and exit",
    )
    parser.add_argument(
        "--list", action="store_true", help="list app pipelines and exit"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in IR_APP_NAMES:
            print(name)
        return 0

    if args.verify:
        states = verify_app_chains(strict=True)
        fused = {app: _fused_stats(app) for app in IR_APP_NAMES}
        if args.json:
            print(json.dumps({"verified": states, "fused": fused}, indent=2))
        else:
            for name, n in states.items():
                print(f"{name:>14}: verified ({n} states)")
            for app, st in fused.items():
                print(
                    f"{app:>14}: fused ({st['inlined_kfuncs']} kfuncs "
                    f"inlined, {st['forwarded_loads']} header loads "
                    f"forwarded, {st['hoisted_calls']} hashes hoisted)"
                )
        return 0

    apps = IR_APP_NAMES if args.app == "all" else (args.app,)
    trace = _trace(args)
    rows = []
    failures = 0
    for app in apps:
        if args.parity:
            backends = BACKENDS
        else:
            backends = (args.backend,)
        witnesses = {}
        for backend in backends:
            if args.cores > 1:
                row, wit = _run_multicore(
                    app, backend, trace, args.seed, args.cores
                )
            else:
                row, wit = _run_single(app, backend, trace, args.seed)
            witnesses[backend] = wit
            rows.append(row)
        if args.parity:
            baseline = witnesses[backends[0]]
            for backend in backends[1:]:
                if witnesses[backend] != baseline:
                    failures += 1
                    print(
                        f"PARITY FAILURE: {app} {backend} diverges from "
                        f"{backends[0]}",
                        file=sys.stderr,
                    )

    payload = {
        "host": host_metadata(),
        "parity": args.parity,
        "parity_failures": failures,
        "results": rows,
    }
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        for row in rows:
            print(
                f"{row['app']:>12} [{row['backend']:>6} x{row['cores']}] "
                f"{row['pps'] / 1e6:7.3f} Mpps  "
                f"{row['cycles_per_packet']:8.1f} cyc/pkt  {row['actions']}"
            )
        if args.parity:
            print(
                "parity: "
                + ("OK (bit-identical)" if failures == 0 else "FAILED")
            )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
