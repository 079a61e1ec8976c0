"""Per-layer wall-clock attribution for the traced pass.

The tracer wraps public functions of each layer from the outside --
nothing in ``src/`` changes -- and records one span per call:
``(span id, layer, start, end, parent span id, run id)``.  A layer's
self time is the duration of its spans minus the part their child
spans cover; time inside a measurement window that no layer span
covers is ``other``.  Self times are accumulated exactly for every
call; the span list keeps the first ``MAX_SPANS`` spans and counts the
rest as dropped.  Spans are written out when the run ends.

Only the traced pass imports this module: the untraced end-to-end runs
execute the program unwrapped.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import repro.analysis.paper_targets as paper_targets
import repro.apps.ir as apps_ir
import repro.ebpf.fuse as fuse
import repro.nfs as nfs
from repro.analysis.parallel import TASK_FNS
from repro.ebpf.verifier import Verifier
from repro.faults import FaultInjector
from repro.net.irnf import IrChainNf
from repro.net.multicore import RssDispatcher
from repro.net.queueing import CoreQueue
from repro.net.slo import CoreAutoscaler, IndirectionTable, SloController
from repro.net.steering import NtupleSteering
from repro.net.xdp import ReplaySession, XdpPipeline

import spec

MAX_SPANS = 200_000

#: Every layer the tracer attributes time to, in report order.
LAYERS = (
    "verifier", "fuse", "registry", "dispatch", "steer", "queue",
    "faults", "xdp", "nf", "slo", "control", "accounting",
    "exp.fig3", "exp.others", "exp.fig1", "exp.fig7", "exp.components",
    "nfs.setup", "xdp.run", "probe",
)

#: Methods through which ``repro.nfs`` NFs load their tables before a
#: measured replay (skip-list preload, filter/table populate, TSS rule
#: install).
NF_SETUP_METHODS = ("preload", "populate", "install_rules")


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[tuple] = []
        self.dropped = 0
        self.next_id = 0
        #: Open spans: [span id, seconds covered by child spans].
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self.window_s: Dict[str, float] = {}

    def _open(self) -> list:
        sid = self.next_id
        self.next_id = sid + 1
        parent = self.stack[-1][0] if self.stack else -1
        frame = [sid, 0.0, parent]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, layer: str, start: float,
               end: float) -> None:
        self.stack.pop()
        dur = end - start
        self.self_s[layer] += dur - frame[1]
        self.calls[layer] += 1
        if self.stack:
            self.stack[-1][1] += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append(
                (frame[0], layer, start, end, frame[2], self.run_id))
        else:
            self.dropped += 1

    def traced(
        self,
        fn: Callable,
        layer: str,
        work: Optional[Callable[[Counter, tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span of ``layer``; ``work(counter, args,
        result)`` records the work the call did."""
        open_, close = self._open, self._close
        counts = self.work
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = open_()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, layer, start, clock())
            if work is not None:
                work(counts, args, result)
            return result

        return wrapper

    def patch(self, owner: Any, name: str, layer: str, work=None) -> None:
        """Replace ``owner.name`` (a class or module attribute) by its
        traced version."""
        setattr(owner, name, self.traced(getattr(owner, name), layer, work))

    @contextmanager
    def window(self, name: str):
        """A measurement window: a root span whose self time is the
        ``other`` of that phase."""
        frame = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._close(frame, f"window.{name}", start, end)
            self.window_s[name] = self.window_s.get(name, 0.0) + end - start

    def install(self) -> None:
        """Wrap every layer boundary the benchmark attributes."""
        p = self.patch
        p(Verifier, "verify", "verifier",
          lambda c, a, r: c.update({"verifier.states": r.states_explored}))
        p(fuse, "fuse_chain", "fuse",
          lambda c, a, r: c.update({"fuse.nodes": r.n_nodes}))
        p(apps_ir, "ir_registry", "registry")
        p(RssDispatcher, "run", "dispatch")
        for name in ("queue_of", "prepare", "repack"):
            p(NtupleSteering, name, "steer")
        p(IndirectionTable, "core_of", "steer")
        p(CoreQueue, "offer", "queue",
          lambda c, a, r: c.update({"queue.offers": 1}))
        p(CoreQueue, "take", "queue",
          lambda c, a, r: c.update({"queue.batches": 1,
                                    "queue.pkts": len(r[0])}))
        for name in ("complete", "drain"):
            p(CoreQueue, name, "queue")
        for name in ("packet_fault", "helper_fault", "map_update_fault"):
            p(FaultInjector, name, "faults")
        p(ReplaySession, "feed", "xdp")
        p(ReplaySession, "finish", "accounting")
        p(IrChainNf, "process_batch", "nf",
          lambda c, a, r: c.update({"nf.pkts": len(a[1])}))
        p(SloController, "run", "slo",
          lambda c, a, r: c.update({"slo.epochs": len(r.timeline)}))
        p(CoreAutoscaler, "decide", "slo",
          lambda c, a, r: c.update({"slo.decisions": int(r != "hold")}))
        p(IndirectionTable, "repack", "slo",
          lambda c, a, r: c.update({"slo.repacks": 1}))
        p(apps_ir.KatranState, "fail_real", "control",
          lambda c, a, r: c.update({"control.slots_moved": r["moved"]}))
        p(XdpPipeline, "run", "xdp.run",
          lambda c, a, r: c.update({"xdp.run.pkts": r.n_packets}))
        for key, fn in list(TASK_FNS.items()):
            layer = _experiment_layer(key)
            if layer is not None:
                TASK_FNS[key] = self.traced(fn, layer)
        for name in ("table2_improvements", "fig6_interface_comparison",
                     "survey_summary"):
            p(paper_targets, name, "exp.components")
        for cls in _nf_classes():
            for name in NF_SETUP_METHODS:
                if name in vars(cls):
                    p(cls, name, "nfs.setup")
        # The benchmark's own host-speed probes, kept out of ``other``.
        p(spec, "probe", "probe")

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _experiment_layer(task: str) -> Optional[str]:
    if task.startswith("fig3"):
        return "exp.fig3"
    return {
        "other_nf": "exp.others",
        "fig1_behavior_shares": "exp.fig1",
        "fig7_apps": "exp.fig7",
    }.get(task)


def _nf_classes() -> List[type]:
    return [
        obj for obj in vars(nfs).values()
        if isinstance(obj, type) and obj.__module__.startswith("repro.nfs")
    ]


def self_times_from_spans(spans: List[tuple]) -> Dict[str, float]:
    """Self time per layer recomputed offline from the span list (the
    independent check on the tracer's running totals)."""
    child: Dict[int, float] = defaultdict(float)
    for sid, layer, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Dict[str, float] = defaultdict(float)
    for sid, layer, start, end, parent, _ in spans:
        out[layer] += (end - start) - child[sid]
    return dict(out)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer report of one traced repetition.

    ``other.s`` is the windows' self time, so the layer self times and
    ``other.s`` add up to ``trace.wall_s`` by construction; the
    self-test checks that against spans recomputed offline.
    """
    s, calls, work = tracer.self_s, tracer.calls, tracer.work
    m: Dict[str, float] = {f"{layer}.s": s.get(layer, 0.0) for layer in LAYERS}
    m.update({
        "verifier.calls": calls["verifier"],
        "verifier.states": work["verifier.states"],
        "fuse.calls": calls["fuse"],
        "fuse.nodes": work["fuse.nodes"],
        "registry.calls": calls["registry"],
        "dispatch.runs": calls["dispatch"],
        "steer.calls": calls["steer"],
        "queue.offers": work["queue.offers"],
        "queue.batches": work["queue.batches"],
        "queue.pkts_per_batch": _ratio(work["queue.pkts"],
                                       work["queue.batches"]),
        "faults.draws": calls["faults"],
        "xdp.batches": calls["xdp"],
        "nf.calls": calls["nf"],
        "nf.pkts_per_call": _ratio(work["nf.pkts"], calls["nf"]),
        "slo.epochs": work["slo.epochs"],
        "slo.decisions": work["slo.decisions"],
        "slo.repacks": work["slo.repacks"],
        "control.slots_moved": work["control.slots_moved"],
        "nfs.setup.calls": calls["nfs.setup"],
        "xdp.run.pkts": work["xdp.run.pkts"],
        "other.s": sum(v for k, v in s.items() if k.startswith("window.")),
        "trace.wall_s": sum(tracer.window_s.values()),
        "trace.run_s": tracer.window_s.get("run", 0.0),
        "trace.spans": len(tracer.spans),
        "trace.spans_dropped": tracer.dropped,
    })
    m["nf.share"] = _ratio(m["nf.s"], m["trace.run_s"])
    return m


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0
