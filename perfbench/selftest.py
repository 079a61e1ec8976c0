"""Self-tests of the benchmark itself (not of the simulator).

    python3 perfbench/selftest.py

1. Schema: ``BENCHMARK.json`` has exactly the contract's keys, metric
   names and units use the allowed characters, bounds are in range,
   ``setup_s`` carries the largest bound, and the runner emits exactly
   the metrics the file lists.
2. Determinism: two fresh-interpreter repetitions of every workload on
   one seed give bit-identical witnesses and modeled numbers
   (``model_*``, ``paper_in_band``, ``failed_frac``).
3. Attribution: in a traced repetition the layer self times plus
   ``other.s`` add up to ``trace.wall_s``, and, where no span was
   dropped, self times recomputed offline from the written spans match
   the tracer's running totals.
4. Isolation: in a directory holding only ``BENCHMARK.json`` and the
   benchmark's files, the runner exits non-zero without a result.

Takes about a minute (``paper-check`` dominates); exits 1 on failure.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from run import load_spec, worker  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 7


def check_schema(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    assert spec["command"][0] == "python3" and len(spec["command"]) <= 32
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS), names
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    seen = set(names)
    for key, fields in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for m in spec[key]:
            assert set(m) == fields, m
            assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
            assert m["better"] in ("higher", "lower"), m
            assert m["name"] not in seen, m["name"]
            seen.add(m["name"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values()), bounds
    assert bounds["setup_s"] == max(bounds.values())
    assert len(json.dumps(spec)) <= 64 * 1024


def check_attribution(rep: dict) -> None:
    from layers import LAYERS, self_times_from_spans

    layers = rep["layers"]
    total = sum(layers[f"{name}.s"] for name in LAYERS) + layers["other.s"]
    assert math.isclose(total, layers["trace.wall_s"], rel_tol=1e-9), (
        total, layers["trace.wall_s"])
    if layers["trace.spans_dropped"]:
        return  # the span file holds a prefix; only the totals are whole
    path = ROOT / ".perfbench" / f"spans-{rep['workload']}.jsonl"
    spans = [tuple(json.loads(line)) for line in path.open()]
    offline = self_times_from_spans(spans)
    for name in LAYERS:
        assert math.isclose(offline.get(name, 0.0), layers[f"{name}.s"],
                            rel_tol=1e-9, abs_tol=1e-9), name


def check_bare_directory(spec: dict) -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        spec["command"] + ["--workload", "apps-rss", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc


def main() -> int:
    spec = load_spec()
    check_schema(spec)
    print("schema: ok")
    for name in run.WORKLOADS:
        first, second = (worker("rep", name, SEED) for _ in range(2))
        for rep in (first, second):
            run.check_rep(name, rep, None)
        assert (first["witness"], first["model"]) == (
            second["witness"], second["model"]), name
        traced = worker("trace", name, SEED)
        assert (traced["witness"], traced["model"]) == (
            first["witness"], first["model"]), f"{name}: tracing changed outputs"
        run.check_rep(name, traced, first)
        traced["workload"] = name
        check_attribution(traced)
        raw = {"plain": [first, second], "traced": [traced],
               "setups": [first["setup_s"], second["setup_s"]]}
        emitted = run.end_to_end(raw)
        assert set(emitted) == {m["name"] for m in spec["end_to_end"]}
        assert all(v > 0 for v in emitted.values()), emitted
        assert set(run.per_layer(raw)) == {m["name"] for m in spec["per_layer"]}
        print(f"{name}: deterministic, attribution adds up, metrics match")
    check_bare_directory(spec)
    print("bare directory: exits non-zero without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
