"""Fig. 7 apps, measured end-to-end (PR 10's acceptance numbers).

Not a pytest module — run it directly:

    PYTHONPATH=src python benchmarks/bench_apps.py [--quick] [--out PATH]

Measures, and self-asserts, the verified-IR app ports of
:mod:`repro.apps.ir`: each of the four Fig. 7 pipelines (katran,
rakelimit, polycube, sketches) replayed as

1. ``interp`` — the interpreted chain (the cost-model era's stand-in),
2. ``fused``  — the whole chain + batch loop in one closure with the
   app kfuncs (connection table, CH ring, level sketches, FDB, heap)
   expanded inline,

single-core and at 4 cores under :class:`RssDispatcher` with ntuple
steering, every configuration witness-checked bit-identical against
the interpreted build — clean and under a :mod:`repro.faults` chaos
schedule.

The capstone is the **cluster day**: the fused Katran pipeline
fronting a Zipf flow population with connection churn, a mid-run
backend failure (control-plane CH-ring repack + connection eviction,
visible to the already-fused closures), a flash crowd on the arrival
process, RX-ring queueing, and chaos faults — reporting aggregate
mpps, p99 sojourn latency per phase, and Maglev failover disruption.
The same phased scenario replays on the interpreted backend and must
match the fused run bit for bit.

Results land in ``BENCH_PR10.json`` next to the repo root; the CI
``apps-smoke`` job runs the ``--quick`` variant and re-checks the
self-assertions plus the JSON schema.
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
from repro.apps.ir import (
    IR_APP_NAMES,
    app_chain,
    app_nf,
    app_nf_factory,
    ir_registry,
)
from repro.ebpf import fuse
from repro.ebpf.cost_model import CPU_HZ
from repro.ebpf.runtime import BpfRuntime
from repro.ebpf.verifier import Verifier
from repro.faults import FaultPlan
from repro.net.flowgen import FlowGenerator
from repro.net.multicore import RssDispatcher
from repro.net.queueing import ArrivalProcess, QueueingConfig

BACKENDS = ("interp", "fused")

#: Timing repetitions per configuration (fresh state each; min wins).
REPS = 3

N_CORES = 4

#: Chaos schedule every parity leg must survive bit-identically.
CHAOS = FaultPlan(
    seed=77,
    drop_rate=0.02,
    corrupt_rate=0.02,
    truncate_rate=0.01,
    helper_rate=0.02,
    map_full_rate=0.02,
)

#: The backend the cluster-day control plane takes down mid-run.
FAILED_REAL = 3


def _trace(n_packets: int, n_flows: int = 1024, seed: int = 14):
    fg = FlowGenerator(
        n_flows=n_flows, distribution="zipf", zipf_s=1.1, seed=seed
    )
    return list(fg.trace(n_packets))


# -- single-core ------------------------------------------------------------


def _timed_single(app, backend, trace):
    """Best-of-REPS wall-clock for one app backend: (pps, witness)."""
    best = float("inf")
    witness = None
    for _ in range(REPS):
        rt = BpfRuntime(seed=1)
        nf = app_nf(app, rt=rt, backend=backend, seed=1,
                    registry=ir_registry(1))
        t0 = time.perf_counter()
        nf.process_batch(trace)
        dt = time.perf_counter() - t0
        best = min(best, dt)
        rep_witness = (tuple(nf.returns), rt.cycles.total,
                       nf.stats.insn_cycles, nf.stats.check_cycles)
        assert witness is None or witness == rep_witness, (
            f"{app}/{backend}: repetitions diverged"
        )
        witness = rep_witness
    return len(trace) / best, witness


# -- multicore --------------------------------------------------------------


def _dispatcher_witness(result, dispatcher):
    return (
        result.accounting(),
        tuple(sorted(result.errors.items())),
        result.total_cycles,
        tuple(sorted(result.injected.items())),
        tuple(tuple(nf.returns) for nf in dispatcher.nfs),
    )


def _timed_multicore(app, backend, trace, faults=None):
    best = float("inf")
    witness = None
    for _ in range(REPS):
        disp = RssDispatcher(
            app_nf_factory(app, backend=backend, registry_seed=2),
            n_cores=N_CORES,
            steering="ntuple",
            faults=faults,
        )
        t0 = time.perf_counter()
        result = disp.run(trace)
        dt = time.perf_counter() - t0
        best = min(best, dt)
        assert result.is_fully_accounted, f"{app}/{backend}: accounting"
        rep_witness = _dispatcher_witness(result, disp)
        assert witness is None or witness == rep_witness, (
            f"{app}/{backend}/{N_CORES}c: repetitions diverged"
        )
        witness = rep_witness
    return len(trace) / best, witness


# -- suites -----------------------------------------------------------------


def apps_suite(n_packets: int, bar_vs_interp: float) -> dict:
    """The Fig. 7 component-swap bars, measured: per app, wall-clock
    pps for interp and fused with bit-identity asserted throughout."""
    trace = _trace(n_packets)
    out = {
        "n_packets": n_packets,
        "n_cores": N_CORES,
        "min_fused_over_interp": bar_vs_interp,
        "apps": {},
    }
    for app in IR_APP_NAMES:
        reg = ir_registry(0)
        verifier = Verifier(reg)
        verified = [verifier.verify(p) for p in app_chain(app)]
        t0 = time.perf_counter()
        fused = fuse.fuse_chain(reg, verified)
        compile_ms = (time.perf_counter() - t0) * 1000

        entry = {
            "chain": [p.name for p in app_chain(app)],
            "compile_ms": round(compile_ms, 3),
            "fused_nodes": fused.n_nodes,
            "inlined_kfuncs": fused.inlined_kfuncs,
        }

        pps, witnesses = {}, {}
        for backend in BACKENDS:
            pps[backend], witnesses[backend] = _timed_single(
                app, backend, trace)
        assert witnesses["fused"] == witnesses["interp"], (
            f"{app}: fused diverged from interp")
        entry["single_core"] = {
            "interp_pps": round(pps["interp"]),
            "fused_pps": round(pps["fused"]),
            "fused_over_interp": round(pps["fused"] / pps["interp"], 3),
            "bit_identical": True,
            "cycle_total": witnesses["interp"][1],
        }
        assert entry["single_core"]["fused_over_interp"] >= bar_vs_interp, (
            f"{app}: fused {entry['single_core']['fused_over_interp']}x "
            f"over interp is below the {bar_vs_interp}x acceptance bar"
        )

        mpps, mwit = {}, {}
        for backend in BACKENDS:
            mpps[backend], mwit[backend] = _timed_multicore(
                app, backend, trace)
        assert mwit["fused"] == mwit["interp"], (
            f"{app}: {N_CORES}-core fused diverged from interp")
        _, chaos_i = _timed_multicore(app, "interp", trace, faults=CHAOS)
        _, chaos_f = _timed_multicore(app, "fused", trace, faults=CHAOS)
        assert chaos_f == chaos_i, (
            f"{app}: fused diverged from interp under chaos")
        entry["multicore"] = {
            "interp_pps": round(mpps["interp"]),
            "fused_pps": round(mpps["fused"]),
            "fused_over_interp": round(mpps["fused"] / mpps["interp"], 3),
            "bit_identical": True,
            "bit_identical_chaos": True,
        }
        out["apps"][app] = entry
    return out


# -- cluster day ------------------------------------------------------------


def _cluster_trace(n_packets: int, n_flows: int, seed: int):
    """Zipf flows stamped by a flash-crowd arrival process: steady
    load for the first ~half, a burst at several times the base rate,
    then steady again."""
    gen = FlowGenerator(
        n_flows=n_flows, distribution="zipf", zipf_s=1.1, seed=seed
    )
    base_pps = 500_000.0
    lead_s = (n_packets / 2) / base_pps
    arrivals = ArrivalProcess.flash_crowd(
        base_pps=base_pps,
        peak_pps=3_500_000.0,
        lead_s=lead_s,
        burst_s=(n_packets / 4) / 3_500_000.0,
        seed=seed,
    )
    return list(gen.iter_trace_bursty(n_packets, arrivals))


def _run_cluster_day(backend: str, trace, n_cores: int, queueing):
    """One phased cluster-day pass: steady+churn, backend failure,
    flash crowd + recovery.  Returns (phase results, failover reports,
    witness)."""
    split = len(trace) // 2
    disp = RssDispatcher(
        app_nf_factory("katran", backend=backend, registry_seed=4),
        n_cores=n_cores,
        steering="ntuple",
        queueing=queueing,
        faults=CHAOS,
    )
    res1 = disp.run(trace[:split])
    # Control plane: one backend dies fleet-wide; every core's CH ring
    # repacks in place and sheds that real's connections.
    reports = [
        nf.registry.app_state.katran.fail_real(FAILED_REAL)
        for nf in disp.nfs
    ]
    res2 = disp.run(trace[split:])
    for res in (res1, res2):
        assert res.is_fully_accounted, f"cluster-day {backend}: accounting"
    witness = (
        _dispatcher_witness(res1, disp)[:4],
        _dispatcher_witness(res2, disp)[:4],
        tuple(res1.latencies_ns),
        tuple(res2.latencies_ns),
        tuple(sorted((k, v) for r in reports for k, v in r.items())),
    )
    return (res1, res2), reports, witness


def cluster_day_suite(n_packets: int, n_flows: int, n_cores: int) -> dict:
    queueing = QueueingConfig(rx_ring_size=256, batch_timeout_ns=20_000)
    trace = _cluster_trace(n_packets, n_flows, seed=9)

    t0 = time.perf_counter()
    (res1, res2), reports, fused_wit = _run_cluster_day(
        "fused", trace, n_cores, queueing)
    wall = time.perf_counter() - t0

    # Strict parity: the interpreted fleet replays the same day —
    # same phases, same failure, same chaos — bit for bit.
    _, _, interp_wit = _run_cluster_day("interp", trace, n_cores, queueing)
    assert fused_wit == interp_wit, (
        "cluster day: fused fleet diverged from interpreted fleet")

    moved = sum(r["moved"] for r in reports)
    evicted = sum(r["evicted"] for r in reports)
    ring = reports[0]["ring_size"]
    disruption = moved / (ring * len(reports))
    total_packets = res1.packets_in + res2.packets_in
    total_cycles = res1.total_cycles + res2.total_cycles
    return {
        "backend": "fused",
        "n_packets": n_packets,
        "n_flows": n_flows,
        "n_cores": n_cores,
        "failed_real": FAILED_REAL,
        "phases": {
            "steady_churn": {
                "packets": res1.packets_in,
                "aggregate_mpps": round(res1.aggregate_mpps, 4),
                "p50_latency_us": round(res1.p50_latency_us, 3),
                "p99_latency_us": round(res1.p99_latency_us, 3),
                "overflow_drops": res1.overflow_drops,
                "injected": dict(res1.injected),
                "actions": dict(res1.actions),
            },
            "flash_crowd": {
                "packets": res2.packets_in,
                "aggregate_mpps": round(res2.aggregate_mpps, 4),
                "p50_latency_us": round(res2.p50_latency_us, 3),
                "p99_latency_us": round(res2.p99_latency_us, 3),
                "overflow_drops": res2.overflow_drops,
                "injected": dict(res2.injected),
                "actions": dict(res2.actions),
            },
        },
        "failover": {
            "disruption": round(disruption, 4),
            "ring_slots_moved": moved,
            "connections_evicted": evicted,
            "per_core": reports,
        },
        "aggregate_mpps": round(
            total_packets * CPU_HZ / 1e6
            / max(1, total_cycles / n_cores), 4
        ),
        "model_mpps_phase_max": round(
            max(res1.aggregate_mpps, res2.aggregate_mpps), 4
        ),
        "wall_seconds": round(wall, 3),
        "wall_pps": round(total_packets / wall) if wall > 0 else 0,
        "interp_parity": True,
    }


def check_schema(payload: dict) -> None:
    """The shape CI asserts — host block with CPU metadata, per-app
    single/multicore sections with parity flags, and the cluster day."""
    host = payload["host"]
    assert "cpu_count" in host and "cpu_affinity" in host, (
        "host block must record cpu_count and cpu_affinity")
    apps = payload["apps"]["apps"]
    assert set(apps) == set(IR_APP_NAMES), sorted(apps)
    for name, entry in apps.items():
        sc = entry["single_core"]
        assert sc["bit_identical"] is True, name
        assert sc["fused_over_interp"] > 1.0, name
        mc = entry["multicore"]
        assert mc["bit_identical"] is True, name
        assert mc["bit_identical_chaos"] is True, name
    day = payload["cluster_day"]
    assert day["interp_parity"] is True
    assert day["aggregate_mpps"] > 0
    assert day["failover"]["connections_evicted"] >= 0
    assert 0.0 <= day["failover"]["disruption"] <= 1.0
    for phase in day["phases"].values():
        assert phase["p99_latency_us"] >= phase["p50_latency_us"] >= 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized run (fewer packets, 2 cores for the cluster "
             "day; relaxed speedup bar to absorb runner noise)",
    )
    parser.add_argument("--packets", type=int, default=None)
    parser.add_argument(
        "--out",
        default=str(
            pathlib.Path(__file__).resolve().parent.parent
            / "BENCH_PR10.json"
        ),
    )
    args = parser.parse_args(argv)
    n_packets = args.packets or (1500 if args.quick else 6000)
    bar_vs_interp = 2.0 if args.quick else 3.0
    day_packets = 2000 if args.quick else 20000
    day_flows = 512 if args.quick else 8192
    day_cores = 2 if args.quick else N_CORES

    print(f"apps suite ({n_packets} packets x {len(IR_APP_NAMES)} apps x "
          f"{len(BACKENDS)} backends, single-core + {N_CORES} cores, "
          f"best of {REPS}) ...")
    apps = apps_suite(n_packets, bar_vs_interp)
    for name, d in apps["apps"].items():
        s, m = d["single_core"], d["multicore"]
        print(f"  {name:>10}: 1-core interp {s['interp_pps']:>7} -> "
              f"fused {s['fused_pps']:>7} pps "
              f"({s['fused_over_interp']:.2f}x interp)")
        print(f"              {N_CORES}-core interp {m['interp_pps']:>7} -> "
              f"fused {m['fused_pps']:>7} pps (chaos parity OK)")

    print(f"cluster day (fused katran, {day_packets} packets, "
          f"{day_flows} flows, {day_cores} cores, backend {FAILED_REAL} "
          f"fails mid-run, flash crowd + chaos + queueing) ...")
    day = cluster_day_suite(day_packets, day_flows, day_cores)
    print(f"  steady:  {day['phases']['steady_churn']['aggregate_mpps']} "
          f"mpps, p99 {day['phases']['steady_churn']['p99_latency_us']} us")
    print(f"  crowd:   {day['phases']['flash_crowd']['aggregate_mpps']} "
          f"mpps, p99 {day['phases']['flash_crowd']['p99_latency_us']} us")
    print(f"  failover: disruption {day['failover']['disruption']:.2%}, "
          f"{day['failover']['connections_evicted']} connections evicted")
    print("  interp parity: OK (bit-identical)")

    payload = {
        "benchmark": "PR10 Fig. 7 apps on the fast path (verified IR, "
                     "fused, multi-core, cluster day)",
        "host": host_metadata(),
        "quick": args.quick,
        "apps": apps,
        "cluster_day": day,
    }
    check_schema(payload)
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
