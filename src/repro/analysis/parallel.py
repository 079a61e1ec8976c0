"""Parallel + cached experiment runner.

The serial harness (:mod:`repro.analysis.experiments`) runs ~20 sweeps
one configuration at a time.  Every sweep point is independent — each
rebuilds its own :class:`FlowGenerator` and :class:`BpfRuntime` from
fixed per-experiment seeds — so the matrix fans out across worker
processes with **bit-identical** results:

1. Each experiment *splits* into subtasks, each a plain
   ``(function-name, kwargs)`` pair that re-invokes the original
   experiment function, as its :mod:`repro.analysis.registry` entry
   declares: one per sweep point on a singleton parameter subset, or
   one for the whole experiment.  Splitting a cuckoo load sweep
   (Fig. 3(c)/(g)) would need its population and table shared across
   subtasks; a process-wide memo for that raised peak memory when it
   was tried.
2. Subtasks run across a ``multiprocessing.Pool`` (stdlib only) and the
   ordered partial results *merge* back, by type, into the exact
   object the serial call would have produced.  Workers look each
   function up by name in :data:`TASK_FNS`.
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
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..ebpf.cost_model import CPU_HZ, DEFAULT_COSTS
from . import experiments as exp
from .components import fig6_interface_comparison, table2_results
from .registry import EXPERIMENTS, Subtask
from .results import Sweep
from .survey import measured_degradations

#: Bump when result container layouts or what an experiment computes
#: change (invalidates the cache).  2: Fig. 7 from the verified-IR builds.
#: 3: the kernel memory wrapper's owner/read/write calls cost
#: ``kernel_call``, not ``kfunc_call`` (Fig. 3a/3b, the LRU cache) --
#: a change of code, not of ``CostModel``, so the cost-model hash in
#: every key cannot see it.
CACHE_VERSION = 3

#: Seconds before the first serial retry of a failed subtask; each
#: further retry waits twice as long.
RETRY_BACKOFF_S = 0.1

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
# Merging partial results
# ---------------------------------------------------------------------------

def _merge(partials: Sequence[Any]) -> Any:
    """Fold one experiment's ordered subtask results into the result
    the serial call returns: a lone result as is, a :class:`Sweep`'s
    points appended, lists concatenated, dicts updated."""
    head = partials[0]
    if len(partials) == 1:
        return head
    if isinstance(head, Sweep):
        merged = Sweep(head.name, head.x_label)
        for part in partials:
            merged.points.extend(part.points)
        return merged
    if isinstance(head, list):
        return [item for part in partials for item in part]
    if isinstance(head, dict):
        return {k: v for part in partials for k, v in part.items()}
    raise TypeError(f"cannot merge {type(head).__name__} results")


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
) -> "Dict[str, Any]":
    """Run the named experiments, fanned out and cached.

    Returns ``{experiment name: result}`` with results identical
    (bit-for-bit, same container types and orderings) to calling the
    serial experiment functions directly.  A name given twice runs once.

    Failure handling: each subtask is dispatched and collected
    independently, so one raising subtask cannot poison its siblings —
    every *successful* result is cached the moment it lands, and a
    failed subtask is **never** written to the cache.  Failures are
    retried serially up to ``retries`` times with exponential backoff
    (``RETRY_BACKOFF_S * 2**attempt``); whatever still fails is raised
    as one aggregate :class:`SubtaskError`.
    """
    if retries < 0:
        raise ValueError("retries must be non-negative")
    names = list(dict.fromkeys(names))
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
                try:
                    cache.put(plan[i][2], value)
                except Exception as exc:
                    # Caching is best-effort: a failed write must not
                    # re-run or fail a subtask that already finished.
                    warnings.warn(
                        f"result cache write failed: {exc}", RuntimeWarning
                    )

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
                        value = handle.get()
                    except Exception as exc:
                        failures.append((i, spec, exc))
                    else:
                        record(i, value)
        else:
            for i, spec in pending:
                try:
                    value = _run_subtask(spec)
                except Exception as exc:
                    failures.append((i, spec, exc))
                else:
                    record(i, value)

        # Bounded serial retry with exponential backoff: transient
        # failures (OOM-killed worker, flaky I/O) get another shot in
        # the parent; deterministic failures surface unchanged.
        for attempt in range(retries):
            if not failures:
                break
            time.sleep(RETRY_BACKOFF_S * (2 ** attempt))
            remaining: List[Tuple[int, Subtask, BaseException]] = []
            for i, spec, _ in failures:
                try:
                    value = _run_subtask(spec)
                except Exception as exc:
                    remaining.append((i, spec, exc))
                else:
                    record(i, value)
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
        results[name] = _merge(partials)
    return results
