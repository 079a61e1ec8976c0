"""Parallel + cached experiment runner.

The serial harness (:mod:`repro.analysis.experiments`) runs ~20 sweeps
one configuration at a time.  Every sweep point is independent — each
rebuilds its own :class:`FlowGenerator` and :class:`BpfRuntime` from
fixed per-experiment seeds — so the matrix fans out across worker
processes with **bit-identical** results:

1. Each experiment *splits* into subtasks, one per sweep point (one
   table size / load factor / depth / NF / app), each a plain
   ``(function-name, kwargs)`` pair that re-invokes the original
   experiment function on a singleton parameter subset.
2. Subtasks run across a ``multiprocessing.Pool`` (stdlib only) and the
   ordered partial results *merge* back into the exact object the
   serial call would have produced (points are appended in the same
   order the serial loop emits them).
3. An on-disk :class:`ResultCache` keyed by
   ``(experiment, params, cost-model hash, cache version)`` lets
   repeat runs (``python -m repro.analysis``, benchmarks, CI smoke
   runs) skip already-computed points entirely.  Seeds are baked into
   the experiment functions' defaults, so the key covers them via the
   kwargs; ``--no-cache`` is the escape hatch.

Determinism contract: a worker executes the same function with the
same arguments as the serial path, so any experiment that is
deterministic serially is deterministic (and bit-identical) here.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..ebpf.cost_model import CPU_HZ, DEFAULT_COSTS
from . import experiments as exp
from .components import fig6_interface_comparison, table2_results
from .results import Sweep
from .survey import measured_degradations

#: Bump when result container layouts change (invalidates the cache).
CACHE_VERSION = 1

#: A subtask: (registered function name, kwargs).  Both picklable.
Subtask = Tuple[str, Dict[str, Any]]

#: Functions workers may execute, by name (callables never pickle).
TASK_FNS: Dict[str, Callable[..., Any]] = {
    "fig3a_skiplist_lookup": exp.fig3a_skiplist_lookup,
    "fig3b_skiplist_update_delete": exp.fig3b_skiplist_update_delete,
    "fig3c_cuckoo_switch": exp.fig3c_cuckoo_switch,
    "fig3d_nitrosketch": exp.fig3d_nitrosketch,
    "fig3e_countmin": exp.fig3e_countmin,
    "fig3f_timewheel": exp.fig3f_timewheel,
    "fig3g_cuckoo_filter": exp.fig3g_cuckoo_filter,
    "fig3h_eiffel": exp.fig3h_eiffel,
    "other_nf": exp.other_nf,
    "fig4_fig5_latency": exp.fig4_fig5_latency,
    "fig1_behavior_shares": exp.fig1_behavior_shares,
    "fig7_apps": exp.fig7_apps,
    "fig7_apps_ir": exp.fig7_apps_ir,
    "measured_degradations": measured_degradations,
    "table2_results": table2_results,
    "fig6_interface_comparison": fig6_interface_comparison,
    "multicore_steering": exp.multicore_steering,
}


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------

def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-analysis``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-analysis"


def cost_model_hash() -> str:
    """Fingerprint of the active cost model (cache-key component).

    Any calibration change re-keys every cached result — cached sweeps
    are only valid for the cost model that produced them.
    """
    payload = repr(sorted(DEFAULT_COSTS.named().items())) + f"|hz={CPU_HZ}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def subtask_key(fn_name: str, kwargs: Dict[str, Any]) -> str:
    """Stable cache key for one subtask."""
    blob = "|".join(
        (
            f"v{CACHE_VERSION}",
            fn_name,
            repr(sorted(kwargs.items())),
            cost_model_hash(),
        )
    )
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """Pickle-per-key on-disk cache for subtask results."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def get(self, key: str) -> Tuple[bool, Any]:
        """Returns ``(found, value)``; corrupt entries count as misses."""
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except Exception:
            # Any unreadable/corrupt entry is a miss: depending on the
            # garbage, pickle raises far more than UnpicklingError
            # (ValueError, ImportError, UnicodeDecodeError, ...), and a
            # stale cache must never crash a report run.
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def put(self, key: str, value: Any) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        # Atomic publish: never leave a half-written pickle behind.
        fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


# ---------------------------------------------------------------------------
# Experiment splitters / mergers
# ---------------------------------------------------------------------------

def _merge_sweeps(partials: Sequence[Sweep]) -> Sweep:
    merged = Sweep(partials[0].name, partials[0].x_label)
    for part in partials:
        merged.points.extend(part.points)
    return merged


def _merge_concat(partials: Sequence[List[Any]]) -> List[Any]:
    out: List[Any] = []
    for part in partials:
        out.extend(part)
    return out


def _merge_dicts(partials: Sequence[Dict[Any, Any]]) -> Dict[Any, Any]:
    out: Dict[Any, Any] = {}
    for part in partials:
        out.update(part)
    return out


def _single(partials: Sequence[Any]) -> Any:
    return partials[0]


def _sweep_splitter(fn_name: str, param: str, values: Sequence[Any]):
    """One subtask per sweep value; serial order is preserved on merge."""

    def split(n_packets: int) -> List[Subtask]:
        return [
            (fn_name, {param: (value,), "n_packets": n_packets})
            for value in values
        ]

    return split


class Experiment:
    """How one experiment fans out and folds back."""

    def __init__(
        self,
        split: Callable[[int], List[Subtask]],
        merge: Callable[[Sequence[Any]], Any],
    ) -> None:
        self.split = split
        self.merge = merge


# Default sweep values mirror the experiment functions' signatures —
# splitting must reproduce the exact serial iteration.
EXPERIMENTS: Dict[str, Experiment] = {
    "fig3a": Experiment(
        _sweep_splitter("fig3a_skiplist_lookup", "loads", (1024, 4096, 16384)),
        _merge_sweeps,
    ),
    "fig3b": Experiment(
        _sweep_splitter(
            "fig3b_skiplist_update_delete", "loads", (1024, 4096, 16384)
        ),
        _merge_sweeps,
    ),
    "fig3c": Experiment(
        _sweep_splitter(
            "fig3c_cuckoo_switch", "load_factors", (0.2, 0.4, 0.6, 0.8, 0.95)
        ),
        _merge_sweeps,
    ),
    "fig3d": Experiment(
        _sweep_splitter(
            "fig3d_nitrosketch", "probs", (1 / 64, 1 / 16, 1 / 4, 1 / 2, 1.0)
        ),
        _merge_sweeps,
    ),
    "fig3e": Experiment(
        _sweep_splitter("fig3e_countmin", "depths", (1, 2, 4, 6, 8)),
        _merge_sweeps,
    ),
    "fig3f": Experiment(
        _sweep_splitter(
            "fig3f_timewheel", "tick_ns_values", (250, 500, 1000, 2000, 4000)
        ),
        _merge_sweeps,
    ),
    "fig3g": Experiment(
        _sweep_splitter(
            "fig3g_cuckoo_filter", "load_factors", (0.2, 0.4, 0.6, 0.8, 0.95)
        ),
        _merge_sweeps,
    ),
    "fig3h": Experiment(
        _sweep_splitter("fig3h_eiffel", "levels", (1, 2, 3, 4)),
        _merge_sweeps,
    ),
    "efd": Experiment(
        lambda n: [("other_nf", {"name": "efd", "n_packets": n})], _single
    ),
    "tss": Experiment(
        lambda n: [("other_nf", {"name": "tss", "n_packets": n})], _single
    ),
    "heavykeeper": Experiment(
        lambda n: [("other_nf", {"name": "heavykeeper", "n_packets": n})],
        _single,
    ),
    "vbf": Experiment(
        lambda n: [("other_nf", {"name": "vbf", "n_packets": n})], _single
    ),
    "fig45": Experiment(
        lambda n: [
            ("fig4_fig5_latency", {"nfs": (nf,), "n_packets": min(n, 500)})
            for nf in exp.LATENCY_NFS
        ],
        _merge_concat,
    ),
    "fig1": Experiment(
        lambda n: [
            ("fig1_behavior_shares", {"nfs": (nf,), "n_packets": n})
            for nf in exp.BEHAVIOR_OF
        ],
        _merge_concat,
    ),
    "fig7": Experiment(
        lambda n: [
            ("fig7_apps", {"apps": (app,), "n_packets": n})
            for app in ("katran", "rakelimit", "polycube", "sketches")
        ],
        _merge_dicts,
    ),
    # Measured end-to-end (wall-clock) variant over the verified-IR
    # ports: one subtask per app, each replaying interp and fused.
    "fig7ir": Experiment(
        lambda n: [
            ("fig7_apps_ir", {"apps": (app,), "n_packets": n})
            for app in ("katran", "rakelimit", "polycube", "sketches")
        ],
        _merge_dicts,
    ),
    "table1": Experiment(
        lambda n: [("measured_degradations", {"n_packets": min(n, 1000)})],
        _single,
    ),
    "table2": Experiment(lambda n: [("table2_results", {})], _single),
    "fig6": Experiment(lambda n: [("fig6_interface_comparison", {})], _single),
    # One subtask per steering policy; each streams its own Zipf trace.
    "multicore": Experiment(
        lambda n: [
            ("multicore_steering", {"policies": (policy,), "n_packets": n})
            for policy in exp.STEERING_POLICIES
        ],
        _merge_dicts,
    ),
}


def _run_subtask(spec: Subtask) -> Any:
    """Worker entry point (top-level: must pickle under spawn too)."""
    fn_name, kwargs = spec
    return TASK_FNS[fn_name](**kwargs)


class SubtaskError(RuntimeError):
    """One or more subtasks failed after exhausting their retries.

    ``failures`` holds ``(fn_name, kwargs, exception)`` triples; results
    of subtasks that *did* succeed were already cached, so a rerun only
    recomputes the failed points.
    """

    def __init__(self, failures: Sequence[Tuple[str, Dict[str, Any], BaseException]]):
        self.failures = list(failures)
        lines = ", ".join(
            f"{fn}({kwargs!r}): {type(exc).__name__}: {exc}"
            for fn, kwargs, exc in self.failures
        )
        super().__init__(
            f"{len(self.failures)} subtask(s) failed after retries: {lines}"
        )


def resolve_jobs(jobs: Union[int, str, None]) -> int:
    """``--jobs`` value -> worker count (``"auto"`` = CPU count)."""
    if jobs in (None, "auto"):
        return os.cpu_count() or 1
    jobs = int(jobs)
    if jobs <= 0:
        raise ValueError("jobs must be positive (or 'auto')")
    return jobs


def run_experiments(
    names: Sequence[str],
    n_packets: int = 2000,
    jobs: Union[int, str, None] = 1,
    cache: Optional[ResultCache] = None,
    retries: int = 1,
    backoff_s: float = 0.1,
) -> "Dict[str, Any]":
    """Run the named experiments, fanned out and cached.

    Returns ``{experiment name: result}`` with results identical
    (bit-for-bit, same container types and orderings) to calling the
    serial experiment functions directly.

    Failure handling: each subtask is dispatched and collected
    independently, so one raising subtask cannot poison its siblings —
    every *successful* result is cached the moment it lands, and a
    failed subtask is **never** written to the cache.  Failures are
    retried serially up to ``retries`` times with exponential backoff
    (``backoff_s * 2**attempt``); whatever still fails is raised as one
    aggregate :class:`SubtaskError`.
    """
    if retries < 0:
        raise ValueError("retries must be non-negative")
    if backoff_s < 0:
        raise ValueError("backoff_s must be non-negative")
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiments: {unknown}")
    n_jobs = resolve_jobs(jobs)

    # Flatten every experiment's subtasks into one work list.
    plan: List[Tuple[str, Subtask, str]] = []   # (experiment, spec, key)
    for name in names:
        for spec in EXPERIMENTS[name].split(n_packets):
            plan.append((name, spec, subtask_key(spec[0], spec[1])))

    results: Dict[str, Any] = {}
    pending: List[Tuple[int, Subtask]] = []
    outputs: List[Any] = [None] * len(plan)
    for i, (_, spec, key) in enumerate(plan):
        if cache is not None:
            found, value = cache.get(key)
            if found:
                outputs[i] = value
                continue
        pending.append((i, spec))

    if pending:

        def record(i: int, value: Any) -> None:
            outputs[i] = value
            if cache is not None:
                cache.put(plan[i][2], value)

        failures: List[Tuple[int, Subtask, BaseException]] = []
        if n_jobs > 1 and len(pending) > 1:
            with multiprocessing.Pool(processes=min(n_jobs, len(pending))) as pool:
                handles = [
                    (i, spec, pool.apply_async(_run_subtask, (spec,)))
                    for i, spec in pending
                ]
                # Collect per subtask: a raising sibling must not lose
                # (or un-cache) anyone else's finished work.
                for i, spec, handle in handles:
                    try:
                        record(i, handle.get())
                    except Exception as exc:
                        failures.append((i, spec, exc))
        else:
            for i, spec in pending:
                try:
                    record(i, _run_subtask(spec))
                except Exception as exc:
                    failures.append((i, spec, exc))

        # Bounded serial retry with exponential backoff: transient
        # failures (OOM-killed worker, flaky I/O) get another shot in
        # the parent; deterministic failures surface unchanged.
        for attempt in range(retries):
            if not failures:
                break
            if backoff_s:
                time.sleep(backoff_s * (2 ** attempt))
            remaining: List[Tuple[int, Subtask, BaseException]] = []
            for i, spec, _ in failures:
                try:
                    record(i, _run_subtask(spec))
                except Exception as exc:
                    remaining.append((i, spec, exc))
            failures = remaining

        if failures:
            raise SubtaskError(
                [(spec[0], spec[1], exc) for _, spec, exc in failures]
            )

    # Fold ordered partials back per experiment.
    for name in names:
        partials = [
            outputs[i] for i, (owner, _, _) in enumerate(plan) if owner == name
        ]
        results[name] = EXPERIMENTS[name].merge(partials)
    return results
