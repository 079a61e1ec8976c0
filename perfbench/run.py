"""The repository benchmark: the eNetSTL simulator, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``perfbench/README.md`` says why each was chosen and which
layers it stresses and skips):

* ``apps-rss``    -- the four Fig. 7 verified-IR app chains, fused, on a
  4-core ntuple-steered ``RssDispatcher``; no queueing, no faults;
* ``cluster-day`` -- the fused Katran fleet under RX queueing, a flash
  crowd, chaos faults and a control-plane backend failure;
* ``slo-crash``   -- a fused RakeLimit fleet under ``SloController``:
  2 of 4 cores, bursty arrivals, a core crash, autoscaling, cold rejoin;
* ``paper-check`` -- ``check_all`` serially, without the result cache.

Every repetition runs in a fresh interpreter (``worker.py``).  With
``--trace 0`` the runner repeats untraced repetitions for at least
``--seconds`` seconds and reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced repetitions and
reports the per-layer metrics, including the tracing overhead.  Either
way it first runs the parity gate (fused against ``interp`` on a
prefix of the trace) and checks every repetition's outputs: the
accounting ledger balances, the witness and the modeled numbers repeat
exactly, and ``paper-check`` reads 30/30.  Human-readable lines come
first; the last line of standard output is one JSON object.  Any
correctness failure exits 1; a checkout without the simulator's source
exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("apps-rss", "cluster-day", "slo-crash", "paper-check")

#: Untraced repetitions per run, at least; more follow until
#: ``--seconds`` have passed.
MIN_REPS = 2

#: No repetition starts that would likely end past this many seconds
#: into the run (a run must end within 180 s).
RUN_BUDGET_S = 140

#: Cold set-ups per run (``setup_s`` is their median).  Set-up-only
#: workers top up what the measured repetitions already gave.
SETUP_SAMPLES = 9

#: Per-subprocess limit; a run must end within 180 s.
WORKER_TIMEOUT_S = 120


class GateFailure(Exception):
    """A correctness check failed; every operation of the run fails."""


def worker(mode: str, workload: str, seed: int) -> Dict:
    """Run one fresh-interpreter repetition and return its JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise GateFailure(f"{mode} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: List[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * pct // 100)) - 1]


def tail_pct(n: int) -> int:
    """The highest whole percentile with at least ten of ``n`` samples
    beyond its nearest rank."""
    return (100 * (n - 10)) // n


def run_s(rep: Dict) -> float:
    """Seconds of one repetition's measured phase at the reference host
    speed (its chunks tile it)."""
    return sum(rep["chunk_ms"]) / 1e3


def typical_chunks(reps: List[Dict]) -> List[float]:
    """Chunk ``i`` of the typical repetition: the median of chunk ``i``
    over the repetitions.  A host stall hits different chunks in
    different repetitions, so this drops it where a whole-run median
    of a few repetitions would not."""
    return [statistics.median(c) for c in zip(*(r["chunk_ms"] for r in reps))]


def check_rep(workload: str, rep: Dict, first: Optional[Dict]) -> None:
    """Per-repetition gate: balanced ledger, 30/30, exact repeats."""
    for ledger in rep["witness"].get("accounting", []):
        if (ledger["packets_in"] + ledger["duplicated"]
                != ledger["forwarded"] + ledger["dropped"] + ledger["aborted"]):
            raise GateFailure(f"accounting does not balance: {ledger}")
    model = rep["model"]
    if workload == "paper-check" and not (
            model["paper_in_band"] == model["paper_checks"] == 30):
        raise GateFailure(
            f"paper check {model['paper_in_band']}/{model['paper_checks']}"
            " in band, want 30/30")
    if "layers" in rep and workload == "paper-check" and (
            rep["layers"]["xdp.run.pkts"] != rep["packets"]):
        raise GateFailure(
            f"paper check replayed {rep['layers']['xdp.run.pkts']} packets,"
            f" the benchmark counts {rep['packets']}")
    if first is not None and (
            (rep["witness"], rep["model"], len(rep["chunk_ms"]))
            != (first["witness"], first["model"], len(first["chunk_ms"]))):
        raise GateFailure("repetitions of one seed diverged")


def measure(args, raw: Dict) -> None:
    """Run the gate and the repetitions, filling ``raw`` as they land
    (so a failure can still count the operations attempted)."""
    plain: List[Dict] = raw["plain"]
    traced: List[Dict] = raw["traced"]
    start = time.perf_counter()
    parity = raw["parity"] = worker("check", args.workload, args.seed)
    if parity["parity"] is False:
        raise GateFailure("fused fleet diverged from the interp backend")
    t0 = last = time.perf_counter()
    while (
        time.perf_counter() - t0 < args.seconds
        or len(plain) < MIN_REPS
        or (args.trace and not traced)
    ):
        now = time.perf_counter()
        done = plain and (traced or not args.trace)
        if done and now + (now - last) - start > RUN_BUDGET_S:
            break
        last = now
        mode = "trace" if args.trace and len(traced) < len(plain) else "rep"
        rep = worker(mode, args.workload, args.seed)
        check_rep(args.workload, rep, plain[0] if plain else None)
        (traced if mode == "trace" else plain).append(rep)
    setups = raw["setups"]
    setups.extend(r["setup_s"] for r in plain)
    while len(setups) < SETUP_SAMPLES:
        setups.append(worker("setup", args.workload, args.seed)["setup_s"])


def end_to_end(raw: Dict) -> Dict[str, float]:
    plain = raw["plain"]
    chunks = typical_chunks(plain)
    run = sum(chunks) / 1e3
    median = statistics.median
    return {
        "wall_pps": plain[0]["packets"] / run,
        "run_s": run,
        "chunk_ms_p50": median(chunks),
        "chunk_ms_tail": percentile(chunks, tail_pct(len(chunks))),
        "setup_s": median(raw["setups"]),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(raw: Dict) -> Dict[str, float]:
    traced = raw["traced"]
    out = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    out["trace.overhead"] = (
        statistics.median(run_s(r) for r in traced)
        / statistics.median(run_s(r) for r in raw["plain"]))
    model = raw["plain"][0]["model"]
    witness = raw["plain"][0]["witness"]
    out["model.mpps"] = model.get("model_mpps", 0.0)
    out["model.p99_us"] = model.get("model_p99_us", 0.0)
    out["model.failed_frac"] = model.get("model_failed_frac", 0.0)
    out["paper.in_band"] = model.get("paper_in_band", 0)
    out["faults.injected"] = sum(n for _, n in witness.get("injected", []))
    out["queue.overflow"] = sum(
        a["overflow"] for a in witness.get("accounting", []))
    return out


def host_block() -> Dict:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.analysis.hostmeta import host_metadata

    return host_metadata()


def report(args, spec: Dict, values: Dict[str, float], raw: Dict,
           host: Dict) -> None:
    """The human-readable lines that precede the JSON result."""
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  repetitions {len(raw['plain'])} untraced"
          f" + {len(raw['traced'])} traced, fresh interpreter each")
    busy = "  BUSY HOST: figures are suspect" if host["busy"] else ""
    print(f"host: python {host['python']}  cpu_count {host['cpu_count']}  "
          f"cpu_affinity {host['cpu_affinity']}  loadavg "
          f"{host['load_before']:.2f} -> {host['load_after']:.2f}{busy}")
    parity = raw["parity"]
    if parity["parity"] is None:
        print("parity: n/a (no IR backends in this workload)")
    else:
        print(f"parity: fused == interp on the first {parity['packets']} "
              "packets (witness and modeled numbers)")
    key = "per_layer" if args.trace else "end_to_end"
    for metric in spec[key]:
        name = metric["name"]
        print(f"  {name:<24} {values[name]:>16.6g} {metric['unit']}")
    if not args.trace:
        plain = raw["plain"]
        n = len(plain[0]["chunk_ms"])
        print(f"  (run_s sums the typical repetition's {n} chunks, each the "
              f"median over {len(plain)} repetitions; chunk_ms_tail is "
              f"their p{tail_pct(n)}, 10 beyond it)")
        wall = statistics.median(sum(r["chunk_wall_ms"]) / 1e3 for r in plain)
        slow = statistics.median(r["slowdown"] for r in plain)
        print(f"  raw wall: run {wall:.4g} s, set-up "
              f"{statistics.median(r['setup_wall_s'] for r in plain):.4g} s;"
              f" the host ran {slow:.2f}x the reference probe time")
        model = raw["plain"][0]["model"]
        print("  modeled (cycle accounting; repeats exactly): " + "  ".join(
            f"{k}={v:.6g}" for k, v in model.items()))
        print("  failed_frac 0 (operations the correctness gate rejected, "
              "over operations attempted)")


def load_spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    host = host_block()
    host["load_before"] = os.getloadavg()[0]
    raw: Dict = {"plain": [], "traced": [], "setups": []}
    try:
        measure(args, raw)
    except (GateFailure, subprocess.TimeoutExpired) as exc:
        print(f"CORRECTNESS FAILURE: {exc}", file=sys.stderr)
        ops = max(1, sum(r["ops"] for r in raw["plain"] + raw["traced"]))
        print(json.dumps({"correct": False, "attempted": ops, "failed": ops,
                          "metrics": {}}))
        return 1
    host["load_after"] = os.getloadavg()[0]
    host["busy"] = max(host["load_before"], host["load_after"]) > (
        host["cpu_affinity"] or 1)
    if host["busy"]:
        print("warning: load average above the schedulable CPU count; "
              "timings are suspect", file=sys.stderr)
    key = "per_layer" if args.trace else "end_to_end"
    values = per_layer(raw) if args.trace else end_to_end(raw)
    report(args, spec, values, raw, host)
    reps = raw["plain"] + raw["traced"]
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["ops"] for r in reps),
        "failed": 0,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[key]
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
