"""Chaos harness: replay traffic under injected faults from the shell.

    python -m repro.faults --packets 20000 --rate 0.01 --cores 8
    python -m repro.faults TRACE.csv --rate 0.005 --nf flow_monitor
    python -m repro.faults --crash-core 3 --crash-at 1000 --cores 8
    python -m repro.faults --crash-core 1 --crash-at 5000 \\
        --burst 1.2e7:2.2e7:0.002:0.003 --slo-p99 60 --autoscale \\
        --initial-cores 4 --cores 8

Runs the multi-queue data plane with a seed-driven
:class:`~repro.faults.FaultPlan` and prints the chaos report: packet
accounting (every packet offered must end forwarded, dropped, or
aborted), injected-fault and error-counter ledgers, watchdog events,
and aggregate throughput.

``--burst`` re-times the traffic onto a (bursty) arrival process and
replays it through the receive-path queueing model, adding p50/p95/p99
sojourn latency and queue-overflow drops to the report.  With
``--slo-p99`` and ``--autoscale`` the run goes through the full SLO
control loop instead (fault-aware re-pack, probabilistic wedge
detection, rejoin with cold-sketch warm-up, p99-targeting autoscaler)
and ``--expect-recovery`` turns time-to-SLO into a CI assertion.

Exit codes:

- 0 — the run completed and every packet is accounted for;
- 1 — the data plane crashed, accounting failed, ``--expect-faults``
  was given and nothing was injected, or ``--expect-recovery`` was
  given and the SLO never recovered (CI smoke assertions);
- 2 — bad command-line arguments.

By default the traffic is synthetic (Zipf over a fixed flow
population); pass a CSV trace path to replay real traffic instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..ebpf.cost_model import ExecMode
from ..ebpf.runtime import BpfRuntime
from ..net.flowgen import DISTRIBUTIONS, FlowGenerator
from ..net.multicore import (
    DEFAULT_WATCHDOG_DEADLINE,
    MulticoreResult,
    RssDispatcher,
)
from ..net.queueing import ArrivalProcess, QueueingConfig
from ..net.replay import (
    NF_BUILDERS as REPLAY_NFS,
    check_slo_args,
    positive_float,
    positive_int,
)
from ..net.slo import SloConfig, SloController
from ..net.steering import POLICIES
from ..net.trace import iter_trace
from ..net.xdp import DEFAULT_BATCH_SIZE
from ..nfs.degrade import ColdStartWarmup
from . import FaultPlan, WedgeDetection


def _flow_monitor(rt):
    from ..nfs import FlowMonitorNF

    # Small LRU-fallback monitor: map-full faults hit a degradation
    # path instead of aborting, which is what chaos runs measure.
    return FlowMonitorNF(rt, max_entries=1024, on_full="fallback")


NF_BUILDERS = {**REPLAY_NFS, "flow_monitor": _flow_monitor}


def _rate(value: str) -> float:
    try:
        parsed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a number")
    if not 0.0 <= parsed <= 1.0:
        raise argparse.ArgumentTypeError(f"rate must be in [0, 1], got {value}")
    return parsed


def _source(args):
    if args.trace is not None:
        return iter_trace(args.trace)
    gen = FlowGenerator(
        n_flows=args.flows, distribution=args.dist, seed=args.seed + 1
    )
    return gen.iter_trace(args.packets)


def _plan(args) -> FaultPlan:
    """The run's fault plan, checked against ``--cores``; raises
    :class:`ValueError` on a bad combination of plan flags."""
    plan = FaultPlan.uniform(
        args.rate,
        seed=args.seed,
        crash_core=args.crash_core,
        crash_at=args.crash_at,
        wedge_core=args.wedge_core,
        wedge_at=args.wedge_at,
    )
    plan.validate_for_cores(args.cores)
    return plan


def run_chaos(args, plan: FaultPlan) -> MulticoreResult:
    """Build the dispatcher and replay the trace (CLI core)."""
    builder = NF_BUILDERS[args.nf]
    mode = ExecMode(args.mode)
    factory = lambda core: builder(BpfRuntime(mode=mode, seed=core))
    arrivals = None
    detection = None
    if args.burst is not None:
        arrivals = ArrivalProcess.from_spec(args.burst, seed=args.seed)
    if args.detection_mean is not None:
        detection = WedgeDetection(
            mean_packets=args.detection_mean, seed=args.seed
        )
    dispatcher = RssDispatcher(
        factory,
        n_cores=args.cores,
        steering=args.policy,
        faults=plan,
        watchdog_deadline=args.watchdog_deadline,
        queueing=QueueingConfig() if arrivals is not None else None,
        detection=detection,
        repack_on_failure=args.repack,
    )
    source = _source(args)
    if arrivals is not None:
        source = arrivals.stamp(source)
    return dispatcher.run(source, batch_size=args.batch_size)


def run_chaos_slo(args, plan: FaultPlan):
    """Chaos through the SLO control loop (``--autoscale`` CLI core)."""
    builder = NF_BUILDERS[args.nf]
    mode = ExecMode(args.mode)
    factory = lambda core: builder(BpfRuntime(mode=mode, seed=core))
    arrivals = ArrivalProcess.from_spec(args.burst, seed=args.seed)
    detection = None
    if args.detection_mean is not None:
        detection = WedgeDetection(
            mean_packets=args.detection_mean, seed=args.seed
        )
    controller = SloController(
        factory,
        max_cores=args.cores,
        initial_cores=args.initial_cores,
        config=SloConfig(target_p99_us=args.slo_p99),
        queueing=QueueingConfig(),
        faults=plan,
        detection=detection,
        warmup=ColdStartWarmup(),
        watchdog_deadline=args.watchdog_deadline,
        batch_size=args.batch_size,
    )
    return controller.run(arrivals.stamp(_source(args)))


def _report(result: MulticoreResult, args) -> dict:
    return {
        "source": args.trace or f"synthetic-{args.dist}",
        "nf": args.nf,
        "mode": args.mode,
        "cores": args.cores,
        "policy": args.policy,
        "rate": args.rate,
        "seed": args.seed,
        "accounting": result.accounting(),
        "accounted": result.is_fully_accounted,
        "injected": dict(result.injected),
        "total_injected": sum(result.injected.values()),
        "errors": dict(result.errors),
        "failures": [f.describe() for f in result.failures],
        "aggregate_mpps": round(result.aggregate_mpps, 3),
        "imbalance": round(result.imbalance, 3),
        "latency": result.latency_summary(),
        "overflow": result.overflow_drops,
    }


def _report_slo(run, args) -> dict:
    return {
        "source": args.trace or f"synthetic-{args.dist}",
        "nf": args.nf,
        "mode": args.mode,
        "cores": args.cores,
        "initial_cores": args.initial_cores,
        "rate": args.rate,
        "seed": args.seed,
        "burst": args.burst,
        "autoscale": True,
        "accounting": run.accounting(),
        "accounted": run.is_fully_accounted,
        "failures": [f.describe() for f in run.failures],
        "latency": run.latency_summary(),
        "slo": {
            "target_p99_us": args.slo_p99,
            "worst_p99_us": run.worst_p99_us,
            "violating_epochs": run.violating_epochs(),
            "recovery_s": run.recovery_s(),
        },
        "timeline": [e.describe() for e in run.timeline],
    }


def _render_slo(report: dict) -> str:
    acc = report["accounting"]
    lat = report["latency"]
    slo = report["slo"]
    lines = [
        f"chaos slo replay: {acc['packets_in']} packets, "
        f"{report['cores']} core(s) provisioned "
        f"({report['initial_cores'] or report['cores']} active) "
        f"[nf={report['nf']}, rate={report['rate']}, "
        f"seed={report['seed']}, burst={report['burst']}]",
        f"  latency us: p50={lat['p50_us']}  p95={lat['p95_us']}"
        f"  p99={lat['p99_us']}",
        f"  slo: target p99 {slo['target_p99_us']}us, worst epoch "
        f"{slo['worst_p99_us']}us, "
        f"{len(slo['violating_epochs'])}/{len(report['timeline'])} "
        f"epochs violating",
        f"  lost: {acc['lost']}  overflow: {acc['overflow']}"
        f"  accounting: {'OK' if report['accounted'] else 'BROKEN'}",
    ]
    if slo["recovery_s"] is not None:
        lines.append(
            f"  time-to-SLO: {round(slo['recovery_s'] * 1e3, 3)} ms"
        )
    for failure in report["failures"]:
        lines.append(
            f"  core {failure['core']} {failure['kind']}: "
            f"processed {failure['processed']}, lost {failure['lost']}"
        )
    for epoch in report["timeline"]:
        for event in epoch["events"]:
            lines.append(f"  epoch {epoch['epoch']}: {event}")
    return "\n".join(lines)


def _render(report: dict) -> str:
    acc = report["accounting"]
    lines = [
        f"chaos replay: {acc['packets_in']} packets, "
        f"{report['cores']} core(s) [nf={report['nf']}, "
        f"mode={report['mode']}, policy={report['policy']}, "
        f"rate={report['rate']}, seed={report['seed']}]",
        f"  forwarded: {acc['forwarded']}  dropped: {acc['dropped']}"
        f"  aborted: {acc['aborted']}  lost: {acc['lost']}"
        f"  duplicated: {acc['duplicated']}",
        f"  accounting: {'OK' if report['accounted'] else 'BROKEN'}"
        f" (in + dup == fwd + drop + abort)",
        f"  aggregate:  {report['aggregate_mpps']:.2f} Mpps"
        f"  imbalance: {report['imbalance']:.3f}",
    ]
    if report["injected"]:
        inj = "  ".join(
            f"{k}={v}" for k, v in sorted(report["injected"].items())
        )
        lines.append(f"  injected ({report['total_injected']}): {inj}")
    if report["errors"]:
        err = "  ".join(f"{k}={v}" for k, v in sorted(report["errors"].items()))
        lines.append(f"  errors: {err}")
    for failure in report["failures"]:
        lines.append(
            f"  core {failure['core']} {failure['kind']}: "
            f"processed {failure['processed']}, lost {failure['lost']}, "
            f"re-steered {failure['resteered']}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Replay traffic through the data plane under "
        "deterministic injected faults and report the damage.",
    )
    parser.add_argument(
        "trace", nargs="?", default=None,
        help="CSV trace to replay (default: synthetic traffic)",
    )
    parser.add_argument(
        "--rate", type=_rate, default=0.01,
        help="aggregate injected fault rate, split uniformly across the "
        "recoverable kinds (default 0.01)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cores", type=positive_int, default=8)
    parser.add_argument("--nf", choices=sorted(NF_BUILDERS), default="countmin")
    parser.add_argument(
        "--mode",
        choices=[m.value for m in ExecMode],
        default=ExecMode.ENETSTL.value,
    )
    parser.add_argument(
        "--policy", choices=sorted(POLICIES), default="rss",
    )
    parser.add_argument(
        "--batch-size", type=positive_int, default=DEFAULT_BATCH_SIZE
    )
    parser.add_argument(
        "--packets", type=positive_int, default=20_000,
        help="synthetic trace length (ignored with a trace file)",
    )
    parser.add_argument(
        "--flows", type=positive_int, default=1024,
        help="synthetic flow population (ignored with a trace file)",
    )
    parser.add_argument(
        "--dist", choices=DISTRIBUTIONS, default="zipf",
        help="synthetic flow-size distribution (default zipf)",
    )
    parser.add_argument(
        "--crash-core", type=int, default=None,
        help="core to kill mid-run (watchdog re-steers its traffic)",
    )
    parser.add_argument(
        "--crash-at", type=int, default=0,
        help="packets the crashing core processes before dying",
    )
    parser.add_argument(
        "--wedge-core", type=int, default=None,
        help="core that stops consuming mid-run (deadline detection)",
    )
    parser.add_argument(
        "--wedge-at", type=int, default=0,
        help="packets the wedging core processes before stalling",
    )
    parser.add_argument(
        "--watchdog-deadline", type=positive_int,
        default=DEFAULT_WATCHDOG_DEADLINE,
        help="lost packets before a wedged core is declared dead",
    )
    parser.add_argument(
        "--burst", default=None, metavar="SPEC",
        help="attach the queueing model, re-timing arrivals onto "
        "BASE_PPS (steady Poisson) or BASE:PEAK:LEAD_S:BURST_S "
        "(flash crowd); adds p50/p95/p99 latency to the report",
    )
    parser.add_argument(
        "--slo-p99", type=positive_float, default=None, metavar="US",
        help="p99 sojourn-latency target in microseconds (needs --burst)",
    )
    parser.add_argument(
        "--autoscale", action="store_true",
        help="run the SLO control loop (fault-aware re-pack, rejoin "
        "with warm-up, p99 autoscaler); needs --burst and --slo-p99",
    )
    parser.add_argument(
        "--initial-cores", type=positive_int, default=None,
        help="active cores at start under --autoscale "
        "(default: all of --cores)",
    )
    parser.add_argument(
        "--detection-mean", type=positive_int, default=None,
        help="mean wedge-detection latency in packets (probabilistic "
        "detection instead of the fixed --watchdog-deadline)",
    )
    parser.add_argument(
        "--repack", action="store_true",
        help="let a table-owning steering policy re-pack placement "
        "over the survivors after a watchdog event (needs --policy "
        "ntuple to have an effect)",
    )
    parser.add_argument(
        "--expect-faults", action="store_true",
        help="fail (exit 1) unless faults were actually injected and "
        "surfaced as aborted packets — the CI smoke assertion",
    )
    parser.add_argument(
        "--expect-recovery", action="store_true",
        help="fail (exit 1) unless the run breached the SLO and "
        "recovered to it (needs --autoscale) — the CI chaos assertion",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    args = parser.parse_args(argv)
    check_slo_args(parser, args)
    if args.expect_recovery and not args.autoscale:
        parser.error("--expect-recovery needs --autoscale")
    if args.burst is not None:
        try:
            ArrivalProcess.from_spec(args.burst, seed=args.seed)
        except ValueError as exc:
            parser.error(str(exc))
    try:
        plan = _plan(args)
    except ValueError as exc:
        parser.error(str(exc))

    try:
        if args.autoscale:
            run = run_chaos_slo(args, plan)
        else:
            result = run_chaos(args, plan)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # the thing chaos runs exist to catch
        print(
            f"error: data plane crashed under fault injection: "
            f"{type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 1

    if args.autoscale:
        report = _report_slo(run, args)
        print(
            json.dumps(report, indent=2) if args.json
            else _render_slo(report)
        )
        if not report["accounted"]:
            print(
                "error: packet accounting does not balance",
                file=sys.stderr,
            )
            return 1
        if args.expect_recovery:
            if not report["slo"]["violating_epochs"]:
                print(
                    "error: expected an SLO breach to recover from, "
                    "saw none",
                    file=sys.stderr,
                )
                return 1
            if report["slo"]["recovery_s"] is None:
                print(
                    "error: SLO breached and never recovered",
                    file=sys.stderr,
                )
                return 1
        return 0

    report = _report(result, args)
    print(json.dumps(report, indent=2) if args.json else _render(report))
    if not report["accounted"]:
        print("error: packet accounting does not balance", file=sys.stderr)
        return 1
    if args.expect_faults:
        if report["total_injected"] == 0:
            print("error: expected injected faults, saw none", file=sys.stderr)
            return 1
        if report["accounting"]["aborted"] == 0:
            print(
                "error: expected aborted packets from injected faults, saw none",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
