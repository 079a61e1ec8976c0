"""Replay packet traffic through the data plane from the shell.

    python -m repro.net.replay TRACE.csv --cores 8 --policy ntuple
    python -m repro.net.replay TRACE.csv --burst 8e6:2e7:0.002:0.003 --json
    python -m repro.net.replay --packets 20000 --rate 0.01 --cores 8 \\
        --expect-faults
    python -m repro.net.replay --crash-core 3 --crash-at 1000 --cores 8
    python -m repro.net.replay --crash-core 1 --crash-at 5000 \\
        --burst 1.2e7:2.2e7:0.002:0.003 --slo-p99 60 --autoscale \\
        --initial-cores 4 --cores 8

The traffic is a CSV trace, streamed off disk row by row through
:func:`repro.net.trace.iter_trace` (the packet list is never
materialized, so any trace replays with O(cores x batch) peak memory),
or without one, synthetic traffic: ``--packets`` packets over
``--flows`` flows drawn from ``--dist``.

Knobs cover the data plane: steering policy (``rss``/``rekey``/
``ntuple``), queue count, batch size, NF and execution mode, and an
optional 2-socket NUMA layout (``--numa-nodes 2``).  ``--nf`` also
runs a Fig. 7 app (``katran``, ``rakelimit``, ``polycube``,
``sketches``): its fused IR chain on every core, each core with a
private kfunc registry seeded from ``--seed``; ``--mode`` is the
library NFs' knob and a usage error with an app.  A seed-driven
:class:`~repro.faults.FaultPlan` injects faults: ``--rate`` splits an
aggregate packet/helper/map fault rate across the recoverable kinds,
and ``--crash-core``/``--wedge-core`` kill or stall a core mid-run for
the watchdog to detect.  The report carries packet accounting (every
packet offered must end forwarded, dropped, or aborted), the
injected-fault and error ledgers, watchdog events, cycles and
throughput.

``--burst`` re-times the traffic onto a (bursty) arrival process and
replays it through the receive-path queueing model, adding p50/p95/p99
sojourn latency and queue-overflow drops; ``--slo-p99`` checks the
tail against a target.  ``--autoscale`` adds the SLO control loop to
the same fleet (``--cores`` provisioned, ``--initial-cores`` active;
fault-aware re-pack, rejoin with cold-sketch warm-up, p99 autoscaler)
and the epoch timeline to the report.  It steers through an
indirection table unless ``--policy`` names another policy; it always
re-packs, so ``--repack`` is a usage error there.  ``--json`` emits the
report the text is rendered from.

Exit codes:

- 0 — the run completed and every packet is accounted for;
- 1 — the trace is unreadable or malformed, the data plane crashed,
  accounting failed, or an ``--expect-faults``/``--expect-recovery``
  assertion did not hold (CI smoke assertions);
- 2 — bad command-line arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..apps.ir import IR_APP_NAMES, app_nf_factory
from ..ebpf.cost_model import ExecMode, NumaTopology
from ..ebpf.runtime import BpfRuntime
from ..faults import FaultPlan, WedgeDetection
from ..nfs.degrade import ColdStartWarmup
from .flowgen import DISTRIBUTIONS, FlowGenerator
from .multicore import DEFAULT_WATCHDOG_DEADLINE, RssDispatcher
from .queueing import ArrivalProcess, QueueingConfig
from .slo import SloConfig
from .steering import POLICIES, IndirectionTable
from .trace import iter_trace
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


def _flow_monitor(rt):
    from ..nfs import FlowMonitorNF

    # Small LRU-fallback monitor: map-full faults hit a degradation
    # path instead of aborting, which is what chaos runs measure.
    return FlowMonitorNF(rt, max_entries=1024, on_full="fallback")


NF_BUILDERS = {
    "countmin": _countmin,
    "bloom": _bloom,
    "maglev": _maglev,
    "flow_monitor": _flow_monitor,
}


def replay(args, plan: Optional[FaultPlan] = None):
    """Run the traffic ``args`` name through the data plane (CLI core).

    Builds the :class:`RssDispatcher` fleet with ``plan``'s faults and
    the wedge-detection model, under ``--autoscale`` with the SLO loop,
    and returns its :class:`~repro.net.multicore.MulticoreResult`.
    """
    if args.nf in IR_APP_NAMES:
        factory = app_nf_factory(args.nf, registry_seed=args.seed)
    else:
        builder = NF_BUILDERS[args.nf]
        mode = ExecMode(args.mode)
        factory = lambda core: builder(BpfRuntime(mode=mode, seed=core))
    if args.trace is not None:
        source = iter_trace(args.trace)
    else:
        source = FlowGenerator(
            n_flows=args.flows, distribution=args.dist, seed=args.seed + 1
        ).iter_trace(args.packets)
    if args.burst is not None:
        arrivals = ArrivalProcess.from_spec(args.burst, seed=args.seed)
        source = arrivals.stamp(source)
    slo = None
    if args.autoscale:
        slo = SloConfig(
            target_p99_us=args.slo_p99,
            initial_cores=args.initial_cores,
            warmup=ColdStartWarmup(),
        )
    numa = None
    if args.numa_nodes > 1:
        numa = NumaTopology(n_nodes=args.numa_nodes)
    dispatcher = RssDispatcher(
        factory,
        n_cores=args.cores,
        steering=args.policy,
        numa=numa,
        faults=plan,
        watchdog_deadline=args.watchdog_deadline,
        queueing=QueueingConfig() if args.burst is not None else None,
        detection=_detection(args),
        repack_on_failure=args.repack,
        slo=slo,
    )
    return dispatcher.run(source, batch_size=args.batch_size)


def _detection(args) -> Optional[WedgeDetection]:
    """The wedge-detection model ``--detection-mean`` names, or None."""
    if args.detection_mean is None:
        return None
    return WedgeDetection(mean_packets=args.detection_mean, seed=args.seed)


def report(run, args) -> dict:
    """The run's report: what ``--json`` prints and the text renders."""
    out = {
        "source": args.trace or f"synthetic-{args.dist}",
        "nf": args.nf,
        "mode": args.mode,
        "cores": args.cores,
        "rate": args.rate,
        "seed": args.seed,
        "burst": args.burst,
        # Under --autoscale without --policy the SLO loop steers
        # through an indirection table.
        "policy": args.policy or IndirectionTable.name,
        "numa_nodes": args.numa_nodes,
        "autoscale": args.autoscale,
        "initial_cores": args.initial_cores,
        "accounting": run.accounting(),
        "accounted": run.is_fully_accounted,
        "actions": dict(run.actions),
        "injected": dict(run.injected),
        "total_injected": sum(run.injected.values()),
        "errors": dict(run.errors),
        "failures": [f.describe() for f in run.failures],
        "latency": run.latency_summary(),
        "overflow": run.overflow_drops,
        "total_cycles": run.total_cycles,
        "numa_cycles": run.total_numa_cycles,
        "per_core_packets": [r.n_packets for r in run.per_core],
        "aggregate_mpps": round(run.aggregate_mpps, 3),
        "imbalance": round(run.imbalance, 3),
        "timeline": [e.describe() for e in run.timeline],
    }
    if args.slo_p99 is not None:
        out["slo"] = {
            "target_p99_us": args.slo_p99,
            "p99_us": round(run.p99_latency_us, 3),
            "met": bool(
                run.latencies_ns and run.p99_latency_us <= args.slo_p99
            ),
            "worst_p99_us": run.worst_p99_us,
            "violating_epochs": run.violating_epochs(),
            "recovery_s": run.recovery_s(),
        }
    return out


def render(rep: dict) -> str:
    """The text form of :func:`report`'s dict."""
    acc = rep["accounting"]
    lat = rep["latency"]
    slo = rep.get("slo")
    numa = rep["numa_nodes"]
    tags = ", ".join(
        f"{key}={rep[key]}"
        for key in ("nf", "mode", "rate", "seed", "policy", "burst")
        if rep[key] is not None
    )
    active = (
        f" ({rep['initial_cores'] or rep['cores']} active at start)"
        if rep["autoscale"] else ""
    )
    lines = [
        f"replayed {acc['packets_in']} packets on {rep['cores']} "
        f"core(s){active} [{tags}"
        + (f", numa={numa} nodes" if numa > 1 else "") + "]",
        f"  aggregate:    {rep['aggregate_mpps']:8.2f} Mpps"
        f"  imbalance: {rep['imbalance']:.3f}",
        f"  total cycles: {rep['total_cycles']}",
    ]
    if rep["numa_cycles"]:
        lines.append(f"  numa cycles:  {rep['numa_cycles']}")
    lines += [
        "  per-core packets: " + " ".join(map(str, rep["per_core_packets"])),
        f"  forwarded: {acc['forwarded']}  dropped: {acc['dropped']}"
        f"  aborted: {acc['aborted']}  lost: {acc['lost']}"
        f"  duplicated: {acc['duplicated']}",
        f"  accounting: {'OK' if rep['accounted'] else 'BROKEN'}"
        f" (in + dup == fwd + drop + abort)",
    ]
    if lat["n"]:
        lines.append(
            f"  latency us:   p50={lat['p50_us']}  p95={lat['p95_us']}"
            f"  p99={lat['p99_us']}  max={lat['max_us']}"
        )
        lines.append(f"  overflow:     {rep['overflow']}")
    if slo is not None and lat["n"]:
        lines.append(
            f"  slo p99<={slo['target_p99_us']}us: "
            f"{'MET' if slo['met'] else 'VIOLATED'} (p99={slo['p99_us']}us)"
        )
    if rep["timeline"]:
        lines.append(
            f"  slo: target p99 {slo['target_p99_us']}us, worst epoch "
            f"{slo['worst_p99_us']}us, "
            f"{len(slo['violating_epochs'])}/{len(rep['timeline'])} "
            f"epochs violating"
        )
        if slo["recovery_s"] is not None:
            lines.append(
                f"  time-to-SLO: {round(slo['recovery_s'] * 1e3, 3)} ms"
            )
    if rep["injected"]:
        inj = "  ".join(f"{k}={v}" for k, v in sorted(rep["injected"].items()))
        lines.append(f"  injected ({rep['total_injected']}): {inj}")
    if rep["errors"]:
        err = "  ".join(f"{k}={v}" for k, v in sorted(rep["errors"].items()))
        lines.append(f"  errors: {err}")
    for failure in rep["failures"]:
        lines.append(
            f"  core {failure['core']} {failure['kind']}: "
            f"processed {failure['processed']}, lost {failure['lost']}, "
            f"re-steered {failure['resteered']}"
        )
    for epoch in rep["timeline"]:
        for event in epoch["events"]:
            lines.append(f"  epoch {epoch['epoch']}: {event}")
    return "\n".join(lines)


def _failure(rep: dict, args) -> Optional[str]:
    """Why the run fails its assertions (exit 1), or None."""
    if not rep["accounted"]:
        return "packet accounting does not balance"
    if args.expect_faults:
        if rep["total_injected"] == 0:
            return "expected injected faults, saw none"
        if rep["accounting"]["aborted"] == 0:
            return "expected aborted packets from injected faults, saw none"
    if args.expect_recovery:
        if not rep["slo"]["violating_epochs"]:
            return "expected an SLO breach to recover from, saw none"
        if rep["slo"]["recovery_s"] is None:
            return "SLO breached and never recovered"
    return None


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


def _rate(value: str) -> float:
    try:
        parsed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a number")
    if not 0.0 <= parsed <= 1.0:
        raise argparse.ArgumentTypeError(f"rate must be in [0, 1], got {value}")
    return parsed


def _check_args(parser: argparse.ArgumentParser, args) -> FaultPlan:
    """Reject inconsistent or ignored flag combinations as usage errors
    (exit 2) and fill in the defaults the run kind reads; returns the
    run's fault plan, checked against ``--cores``."""
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
    if args.expect_recovery and not args.autoscale:
        parser.error("--expect-recovery needs --autoscale")
    if args.autoscale and args.repack:
        parser.error("--repack: not read under --autoscale (the SLO loop "
                     "always re-packs)")
    if not args.autoscale:
        args.policy = args.policy or "rss"
    args.numa_nodes = args.numa_nodes or 1
    if args.repack and args.policy != "ntuple":
        parser.error(f"--repack: --policy {args.policy} has no table "
                     "to re-pack (only ntuple does)")
    if args.nf in IR_APP_NAMES:
        if args.mode is not None:
            parser.error(f"--mode: the {args.nf} IR chain does not read "
                         "an execution mode")
    else:
        args.mode = args.mode or ExecMode.ENETSTL.value
    try:
        if args.burst is not None:
            ArrivalProcess.from_spec(args.burst, seed=args.seed)
        _detection(args)
        plan = FaultPlan.uniform(
            args.rate,
            seed=args.seed,
            crash_core=args.crash_core,
            crash_at=args.crash_at,
            wedge_core=args.wedge_core,
            wedge_at=args.wedge_at,
        )
        plan.validate_for_cores(args.cores)
    except ValueError as exc:
        parser.error(str(exc))
    return plan


def parse_args(argv: Optional[List[str]] = None):
    """The parsed command line and its fault plan; bad arguments exit 2."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.replay",
        description="Replay a CSV trace or synthetic traffic through the "
        "multi-queue data plane, optionally under injected faults.",
    )
    parser.add_argument(
        "trace", nargs="?", default=None,
        help="CSV trace to replay (see repro.net.trace; default: "
        "synthetic traffic)",
    )
    parser.add_argument(
        "--nf", choices=sorted(NF_BUILDERS) + list(IR_APP_NAMES),
        default="countmin",
        help="NF on every core; katran, rakelimit, polycube and sketches "
        "run a Fig. 7 app's fused IR chain (default countmin)",
    )
    parser.add_argument(
        "--mode", choices=[m.value for m in ExecMode], default=None,
        help="execution mode of the library NFs (default enetstl)",
    )
    parser.add_argument("--cores", type=positive_int, default=8)
    parser.add_argument(
        "--policy", choices=sorted(POLICIES), default=None,
        help="steering policy (default: plain RSS; under --autoscale an "
        "indirection table over the serving cores)",
    )
    parser.add_argument(
        "--batch-size", type=positive_int, default=DEFAULT_BATCH_SIZE
    )
    parser.add_argument(
        "--numa-nodes", type=positive_int, default=None,
        help="NUMA nodes to spread the cores over (default 1: no penalty)",
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
        "--seed", type=int, default=0,
        help="seed for the fault plan, arrival jitter, wedge detection "
        "and synthetic traffic (default 0)",
    )
    parser.add_argument(
        "--rate", type=_rate, default=0.0,
        help="aggregate injected fault rate, split uniformly across the "
        "recoverable kinds (default 0: no faults)",
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
        "--detection-mean", type=positive_int, default=None,
        help="mean wedge-detection latency in packets, at least 64 "
        "(probabilistic detection instead of the fixed "
        "--watchdog-deadline)",
    )
    parser.add_argument(
        "--repack", action="store_true",
        help="let the ntuple steering policy re-pack placement over "
        "the survivors after a watchdog event (needs --policy ntuple; "
        "the SLO loop of --autoscale always re-packs)",
    )
    parser.add_argument(
        "--burst", default=None, metavar="SPEC",
        help="attach the queueing model, re-timing arrivals onto "
        "BASE_PPS (steady Poisson) or BASE:PEAK:LEAD_S:BURST_S "
        "(flash crowd); enables latency/overflow reporting",
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
    return args, _check_args(parser, args)


def main(argv: Optional[List[str]] = None) -> int:
    args, plan = parse_args(argv)
    try:
        run = replay(args, plan)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # the thing chaos runs exist to catch
        print(
            f"error: data plane crashed: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 1
    rep = report(run, args)
    print(json.dumps(rep, indent=2) if args.json else render(rep))
    failure = _failure(rep, args)
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
