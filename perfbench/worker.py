"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/worker.py MODE WORKLOAD SEED

MODE is one of

* ``setup`` -- cold set-up only: import the simulator and build the
  workload's fleet (registry build, verification, fusion);
* ``rep``   -- set-up, then the measured replay;
* ``trace`` -- ``rep`` with the layer tracer installed, spans written
  to ``.perfbench/spans-WORKLOAD.jsonl`` in the checkout;
* ``check`` -- the parity gate: the fused fleet against the ``interp``
  backend on a prefix of the trace, outside any timed phase.

Each mode prints one JSON object as its last line.  A fresh interpreter
per repetition keeps the ``fused_for``/``compiled_for`` caches cold at
fleet build, as every CLI invocation finds them.  Times are scaled to
the reference host speed (``spec.probe``); the raw wall times ride
along.
"""

from __future__ import annotations

import importlib
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from spec import PROBE_REF_S, probe, speed  # noqa: E402

#: Workload name -> the module that defines it.  ``paper-check`` lives
#: apart so that its set-up imports only the analysis stack.
MODULES = {
    "apps-rss": "workloads",
    "cluster-day": "workloads",
    "slo-crash": "workloads",
    "paper-check": "papercheck",
}


def load(name: str):
    return importlib.import_module(MODULES[name]).WORKLOADS[name]


def setup(name: str, seed: int) -> dict:
    before = probe()
    t0 = time.perf_counter()
    load(name).build(seed, "fused")
    wall = time.perf_counter() - t0
    return {"setup_s": wall * speed(before, probe()), "setup_wall_s": wall}


def rep(name: str, seed: int, tracer=None) -> dict:
    before = probe()
    t0 = time.perf_counter()
    wl = load(name)
    import_s = time.perf_counter() - t0
    inputs = wl.inputs(seed)
    if tracer is not None:
        tracer.install()
    window = tracer.window if tracer is not None else lambda _: nullcontext()
    t0 = time.perf_counter()
    with window("setup"):
        fleet = wl.build(seed, "fused")
    setup_wall = import_s + time.perf_counter() - t0
    setup_s = setup_wall * speed(before, probe())
    clock = wl.clock()
    with window("run"):
        clock.begin()
        outputs = wl.replay(fleet, inputs, clock)
    return {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall,
        "chunk_ms": clock.chunk_ms(),
        "chunk_wall_ms": clock.wall_ms,
        "slowdown": statistics.median(clock.probes) / PROBE_REF_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        **wl.outcome(fleet, outputs),
    }


def trace(name: str, seed: int) -> dict:
    from layers import Tracer, layer_metrics

    tracer = Tracer(run_id=f"{name}/{seed}")
    out = rep(name, seed, tracer)
    tracer.write_spans(ROOT / ".perfbench" / f"spans-{name}.jsonl")
    out["layers"] = layer_metrics(tracer)
    return out


def check(name: str, seed: int) -> dict:
    wl = load(name)
    if not wl.parity_packets:
        return {"parity": None}
    inputs = wl.inputs(seed)
    prefix = dict(inputs, trace=inputs["trace"][:wl.parity_packets])
    seen = {}
    for backend in ("interp", "fused"):
        fleet = wl.build(seed, backend)
        clock = wl.clock()
        clock.begin()
        outcome = wl.outcome(fleet, wl.replay(fleet, prefix, clock))
        seen[backend] = (outcome["witness"], outcome["model"])
    return {
        "parity": seen["interp"] == seen["fused"],
        "packets": wl.parity_packets,
    }


MODES = {"setup": setup, "rep": rep, "trace": trace, "check": check}


def main(argv) -> int:
    mode, name, seed = argv
    print(json.dumps(MODES[mode](name, int(seed))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
