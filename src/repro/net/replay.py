"""Replay a CSV packet trace through the data plane from the shell.

    python -m repro.net.replay TRACE.csv --cores 8 --policy ntuple --stream
    python -m repro.net.replay TRACE.csv --burst 8e6:2e7:0.002:0.003 --json
    python -m repro.net.replay TRACE.csv --burst 1e7 --slo-p99 60 \\
        --autoscale --initial-cores 4

``--stream`` replays the trace straight off disk through
:func:`repro.net.trace.iter_trace` — the packet list is **never**
materialized, so arbitrarily large traces replay with
O(cores x batch) peak memory.  Without it, the trace is loaded fully
first (byte-identical results; only the memory profile differs).

Knobs cover the PR 2 data plane: steering policy
(``rss``/``rekey``/``ntuple``), queue count, batch size, NF and
execution mode, and an optional 2-socket NUMA layout
(``--numa-nodes 2``).

``--burst`` attaches the receive-path queueing model: the trace is
re-timed onto a deterministic (bursty) arrival process and the report
gains p50/p95/p99 sojourn latency plus queue-overflow drops.  Add
``--slo-p99`` to check the tail against a target, and ``--autoscale``
to run the full SLO control loop (``--cores`` provisioned,
``--initial-cores`` active) instead of the fixed fleet.  ``--json``
emits the machine-readable report.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..ebpf.cost_model import ExecMode, NumaTopology
from ..ebpf.runtime import BpfRuntime
from .multicore import MulticoreResult, RssDispatcher
from .queueing import ArrivalProcess, QueueingConfig
from .slo import SloConfig, SloController
from .steering import POLICIES
from .trace import iter_trace, load_trace
from .xdp import DEFAULT_BATCH_SIZE


def _countmin(rt):
    from ..nfs import CountMinNF

    return CountMinNF(rt, depth=4)


def _bloom(rt):
    from ..nfs import BloomFilterNF

    return BloomFilterNF(rt)


def _maglev(rt):
    from ..nfs import MaglevNF

    return MaglevNF(rt)


#: NFs with a ``process_batch`` fast path — the replay-friendly subset.
NF_BUILDERS = {"countmin": _countmin, "bloom": _bloom, "maglev": _maglev}


def replay(
    path: str,
    nf: str = "countmin",
    mode: ExecMode = ExecMode.ENETSTL,
    cores: int = 8,
    policy: str = "rss",
    batch_size: int = DEFAULT_BATCH_SIZE,
    stream: bool = False,
    numa_nodes: int = 1,
    arrivals: Optional[ArrivalProcess] = None,
) -> MulticoreResult:
    """Replay ``path`` and return the aggregate result (CLI core).

    With ``arrivals`` the trace is re-timed onto the arrival process
    and replayed through the queueing model (latency + overflow on the
    result); cycle totals are identical either way.
    """
    builder = NF_BUILDERS[nf]
    factory = lambda core: builder(BpfRuntime(mode=mode, seed=core))
    numa = NumaTopology(n_nodes=numa_nodes) if numa_nodes > 1 else None
    queueing = QueueingConfig() if arrivals is not None else None
    dispatcher = RssDispatcher(
        factory, n_cores=cores, steering=policy, numa=numa,
        queueing=queueing,
    )
    source = iter_trace(path) if stream else load_trace(path)
    if arrivals is not None:
        source = arrivals.stamp(iter(source))
    return dispatcher.run(source, batch_size=batch_size)


def replay_slo(
    path: str,
    arrivals: ArrivalProcess,
    target_p99_us: float,
    nf: str = "countmin",
    mode: ExecMode = ExecMode.ENETSTL,
    cores: int = 8,
    initial_cores: Optional[int] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    stream: bool = False,
):
    """Replay through the SLO control loop (``--autoscale`` CLI core)."""
    builder = NF_BUILDERS[nf]
    factory = lambda core: builder(BpfRuntime(mode=mode, seed=core))
    controller = SloController(
        factory,
        max_cores=cores,
        initial_cores=initial_cores,
        config=SloConfig(target_p99_us=target_p99_us),
        queueing=QueueingConfig(),
        batch_size=batch_size,
    )
    source = iter_trace(path) if stream else load_trace(path)
    return controller.run(arrivals.stamp(iter(source)))


def _render(result: MulticoreResult, args) -> str:
    lines = [
        f"replayed {result.n_packets} packets on {result.n_cores} core(s) "
        f"[nf={args.nf}, mode={args.mode}, policy={args.policy}"
        + (", streamed" if args.stream else ", materialized")
        + (f", numa={args.numa_nodes} nodes" if args.numa_nodes > 1 else "")
        + "]",
        f"  aggregate:    {result.aggregate_mpps:8.2f} Mpps",
        f"  imbalance:    {result.imbalance:8.3f}",
        f"  total cycles: {result.total_cycles}",
    ]
    if result.numa_cycles:
        lines.append(f"  numa cycles:  {result.total_numa_cycles}")
    lines.append(
        "  per-core packets: "
        + " ".join(str(r.n_packets) for r in result.per_core)
    )
    for action, count in sorted(result.actions.items()):
        lines.append(f"  {action}: {count}")
    if result.latencies_ns:
        lat = result.latency_summary()
        lines.append(
            f"  latency us:   p50={lat['p50_us']}  p95={lat['p95_us']}"
            f"  p99={lat['p99_us']}  max={lat['max_us']}"
        )
        lines.append(f"  overflow:     {result.overflow_drops}")
    if args.slo_p99 is not None and result.latencies_ns:
        met = result.p99_latency_us <= args.slo_p99
        lines.append(
            f"  slo p99<={args.slo_p99}us: {'MET' if met else 'VIOLATED'}"
            f" (p99={round(result.p99_latency_us, 3)}us)"
        )
    return "\n".join(lines)


def _json_report(result: MulticoreResult, args) -> dict:
    report = {
        "trace": args.trace,
        "nf": args.nf,
        "mode": args.mode,
        "cores": args.cores,
        "policy": args.policy,
        "burst": args.burst,
        "aggregate_mpps": round(result.aggregate_mpps, 3),
        "imbalance": round(result.imbalance, 3),
        "total_cycles": result.total_cycles,
        "actions": dict(result.actions),
        "latency": result.latency_summary(),
        "overflow": result.overflow_drops,
    }
    if args.slo_p99 is not None:
        report["slo"] = {
            "target_p99_us": args.slo_p99,
            "p99_us": round(result.p99_latency_us, 3),
            "met": bool(
                result.latencies_ns
                and result.p99_latency_us <= args.slo_p99
            ),
        }
    return report


def _render_slo(run, args) -> str:
    lat = run.latency_summary()
    scale_ups = sum(
        1 for ep in run.timeline for e in ep.events
        if e.startswith("scale-up")
    )
    lines = [
        f"slo replay: {run.packets_in} packets, {args.cores} core(s) "
        f"provisioned [nf={args.nf}, target p99 {args.slo_p99}us, "
        f"autoscale on]",
        f"  latency us:  p50={lat['p50_us']}  p95={lat['p95_us']}"
        f"  p99={lat['p99_us']}",
        f"  worst epoch p99: {run.worst_p99_us}us"
        f"  violating epochs: {len(run.violating_epochs())}"
        f"/{len(run.timeline)}",
        f"  scale-ups: {scale_ups}"
        f"  overflow: {run.overflow}  lost: {run.lost}",
        f"  accounting: {'OK' if run.is_fully_accounted else 'BROKEN'}",
    ]
    recovery = run.recovery_s()
    if recovery is not None:
        lines.append(f"  time-to-SLO: {round(recovery * 1e3, 3)} ms")
    return "\n".join(lines)


def _json_report_slo(run, args) -> dict:
    return {
        "trace": args.trace,
        "nf": args.nf,
        "mode": args.mode,
        "cores": args.cores,
        "initial_cores": args.initial_cores,
        "burst": args.burst,
        "autoscale": True,
        "latency": run.latency_summary(),
        "slo": {
            "target_p99_us": args.slo_p99,
            "worst_p99_us": run.worst_p99_us,
            "violating_epochs": run.violating_epochs(),
            "recovery_s": run.recovery_s(),
        },
        "accounting": run.accounting(),
        "accounted": run.is_fully_accounted,
        "timeline": [e.describe() for e in run.timeline],
    }


def positive_int(value: str) -> int:
    """argparse type: a strictly positive integer, clearly rejected.

    Keeps bad values (``--cores 0``, ``--numa-nodes -3``) from being
    silently accepted or surfacing later as a traceback: argparse turns
    the ArgumentTypeError into a one-line usage error and exit code 2.
    """
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer")
    if parsed <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return parsed


def positive_float(value: str) -> float:
    """argparse type: a strictly positive float, clearly rejected."""
    try:
        parsed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a number")
    if parsed <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {value}"
        )
    return parsed


def check_slo_args(parser: argparse.ArgumentParser, args) -> None:
    """Reject inconsistent ``--burst``/``--slo-p99``/``--autoscale``/
    ``--initial-cores`` combinations as usage errors (exit 2)."""
    if args.slo_p99 is not None and args.burst is None:
        parser.error("--slo-p99 needs --burst (latency requires the "
                     "queueing model)")
    if args.autoscale and (args.burst is None or args.slo_p99 is None):
        parser.error("--autoscale needs --burst and --slo-p99")
    if args.initial_cores is not None and not args.autoscale:
        parser.error("--initial-cores only makes sense with --autoscale")
    if args.initial_cores is not None and args.initial_cores > args.cores:
        parser.error(
            f"--initial-cores {args.initial_cores} exceeds --cores "
            f"{args.cores}"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.replay",
        description="Replay a CSV packet trace through the multi-queue "
        "data plane.",
    )
    parser.add_argument("trace", help="CSV trace (see repro.net.trace)")
    parser.add_argument(
        "--stream",
        action="store_true",
        help="stream the trace off disk row by row instead of loading it "
        "fully (O(cores x batch) peak memory; identical results)",
    )
    parser.add_argument(
        "--nf", choices=sorted(NF_BUILDERS), default="countmin"
    )
    parser.add_argument(
        "--mode",
        choices=[m.value for m in ExecMode],
        default=ExecMode.ENETSTL.value,
    )
    parser.add_argument("--cores", type=positive_int, default=8)
    parser.add_argument(
        "--policy", choices=sorted(POLICIES), default="rss",
        help="steering policy (default: plain RSS)",
    )
    parser.add_argument(
        "--batch-size", type=positive_int, default=DEFAULT_BATCH_SIZE
    )
    parser.add_argument(
        "--numa-nodes", type=positive_int, default=1,
        help="NUMA nodes to spread the cores over (default 1: no penalty)",
    )
    parser.add_argument(
        "--burst", default=None, metavar="SPEC",
        help="attach the queueing model, re-timing arrivals onto "
        "BASE_PPS (steady Poisson) or BASE:PEAK:LEAD_S:BURST_S "
        "(flash crowd); enables latency/overflow reporting",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="arrival-jitter seed for --burst (default 0)",
    )
    parser.add_argument(
        "--slo-p99", type=positive_float, default=None, metavar="US",
        help="p99 sojourn-latency target in microseconds (needs --burst)",
    )
    parser.add_argument(
        "--autoscale", action="store_true",
        help="run the SLO control loop: --cores are provisioned, "
        "--initial-cores start active, the autoscaler works the rest "
        "(needs --burst and --slo-p99)",
    )
    parser.add_argument(
        "--initial-cores", type=positive_int, default=None,
        help="active cores at start under --autoscale "
        "(default: all of --cores)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    args = parser.parse_args(argv)
    check_slo_args(parser, args)
    arrivals = None
    if args.burst is not None:
        try:
            arrivals = ArrivalProcess.from_spec(args.burst, seed=args.seed)
        except ValueError as exc:
            parser.error(str(exc))
    try:
        if args.autoscale:
            run = replay_slo(
                args.trace,
                arrivals,
                target_p99_us=args.slo_p99,
                nf=args.nf,
                mode=ExecMode(args.mode),
                cores=args.cores,
                initial_cores=args.initial_cores,
                batch_size=args.batch_size,
                stream=args.stream,
            )
        else:
            result = replay(
                args.trace,
                nf=args.nf,
                mode=ExecMode(args.mode),
                cores=args.cores,
                policy=args.policy,
                batch_size=args.batch_size,
                stream=args.stream,
                numa_nodes=args.numa_nodes,
                arrivals=arrivals,
            )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.autoscale:
        print(
            json.dumps(_json_report_slo(run, args), indent=2)
            if args.json else _render_slo(run, args)
        )
    else:
        print(
            json.dumps(_json_report(result, args), indent=2)
            if args.json else _render(result, args)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
