"""The one replay core against the per-packet loop it replaced.

``XdpPipeline.run`` feeds a :class:`ReplaySession` batches, and the
session's core hands each batch to ``process_batch`` or runs
``process`` per packet.  :func:`oracle_run` is the earlier per-packet
replay loop, kept verbatim as the reference: one fault draw pair per
packet, per-packet charges, clock advance and latency.  Every NF in
:mod:`repro.nfs` and both IR chain backends must replay to the same
:class:`PipelineResult` and the same clock through both, with and
without faults, with and without latency, at any batch size.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from typing import List

import pytest

from repro.analysis.experiments import make_rules_for_flows
from repro.ebpf.cost_model import CPU_HZ, Category, ExecMode
from repro.ebpf.progs import NF_CHAIN_STAGES, get_case, runnable_registry
from repro.ebpf.runtime import BpfRuntime
from repro.faults import (
    PKT_CORRUPT,
    PKT_DROP,
    PKT_DUP,
    PKT_TRUNCATE,
    FaultPlan,
)
from repro.net.flowgen import FlowGenerator
from repro.net.irnf import IrChainNf
from repro.net.packet import XdpAction
from repro.net.xdp import (
    BASE_WIRE_LATENCY_NS,
    HELPER_ERROR,
    PARSE_ERROR,
    PipelineResult,
    XdpPipeline,
)
from repro.nfs import ALL_NFS, EXTENSION_NFS, HyperCutsNF

_VALID_ACTIONS = frozenset(XdpAction.ALL)
_PARSE_FAULTS = frozenset((PKT_CORRUPT, PKT_TRUNCATE))


def oracle_run(pipeline: XdpPipeline, trace, measure_latency=False):
    """The per-packet replay loop ``XdpPipeline.run`` used to be."""
    rt = pipeline.rt
    costs = rt.costs
    charge = rt.charge
    cycles = rt.cycles
    nf_process = pipeline.nf.process
    dispatch_cost = costs.xdp_dispatch
    parse_cost = costs.packet_parse
    framework_cat = Category.FRAMEWORK
    parse_cat = Category.PARSE
    faults = pipeline.faults
    actions: Counter = Counter()
    errors: Counter = Counter()
    latencies: List[int] = []
    start = cycles.checkpoint()
    n = 0
    duplicated = 0
    for pkt in trace:
        ts = pkt.timestamp_ns
        if ts > rt.now_ns:
            rt.advance_time_ns(ts - rt.now_ns)
        copies = 1
        if faults is not None:
            pf = faults.packet_fault()
            helper = faults.helper_fault()
            if pf == PKT_DROP:
                actions[XdpAction.DROP] += 1
                n += 1
                continue
            if pf in _PARSE_FAULTS or helper:
                before = cycles.total
                charge(dispatch_cost, framework_cat)
                charge(parse_cost, parse_cat)
                actions[XdpAction.ABORTED] += 1
                errors[
                    PARSE_ERROR if pf in _PARSE_FAULTS else HELPER_ERROR
                ] += 1
                if measure_latency:
                    proc_ns = int((cycles.total - before) * 1e9 / CPU_HZ)
                    latencies.append(2 * BASE_WIRE_LATENCY_NS + proc_ns)
                n += 1
                continue
            if pf == PKT_DUP:
                copies = 2
                duplicated += 1
        while copies:
            copies -= 1
            before = cycles.total
            charge(dispatch_cost, framework_cat)
            charge(parse_cost, parse_cat)
            try:
                action = nf_process(pkt)
            except Exception as exc:
                action = XdpAction.ABORTED
                errors[type(exc).__name__] += 1
            if action not in _VALID_ACTIONS:
                raise ValueError(f"NF returned invalid XDP action {action!r}")
            actions[action] += 1
            if measure_latency:
                proc_ns = int((cycles.total - before) * 1e9 / CPU_HZ)
                latencies.append(2 * BASE_WIRE_LATENCY_NS + proc_ns)
            n += 1
    delta = cycles.delta_since(start)
    return PipelineResult(
        n_packets=n,
        total_cycles=delta.total,
        actions=dict(actions),
        by_category=delta.by_category,
        latencies_ns=latencies,
        errors=dict(errors),
        duplicated=duplicated,
    )


FLOWS = FlowGenerator(n_flows=96, seed=21, distribution="zipf")
TRACE = FLOWS.trace(300, inter_arrival_ns=700)
MEMBERS = [f.key_int for f in FLOWS.flows[:48]]

#: Every fault kind the plan knows, dense enough to fire in 300 packets.
ALL_FAULTS = FaultPlan(
    seed=17,
    drop_rate=0.03,
    corrupt_rate=0.03,
    truncate_rate=0.03,
    dup_rate=0.03,
    helper_rate=0.03,
    map_full_rate=0.03,
    map_nomem_rate=0.03,
)


def _build_nf(name: str):
    if name in ("interp", "fused"):
        rt = BpfRuntime(mode=ExecMode.ENETSTL, seed=5)
        progs = [get_case(stage).prog for stage in NF_CHAIN_STAGES]
        return IrChainNf(
            rt, progs, registry=runnable_registry(5), backend=name
        )
    cls = {**ALL_NFS, **EXTENSION_NFS}[name]
    rt = BpfRuntime(mode=cls.supported_modes[-1], seed=5)
    if cls is HyperCutsNF:
        return cls(rt, make_rules_for_flows(FLOWS.flows[:48]))
    nf = cls(rt)
    if hasattr(nf, "populate"):
        nf.populate(MEMBERS)
    if hasattr(nf, "bind_flows"):
        nf.bind_flows(MEMBERS, lambda key: key % 4)
    return nf


NF_NAMES = sorted({**ALL_NFS, **EXTENSION_NFS}) + ["interp", "fused"]


def test_every_nf_is_covered():
    assert len(NF_NAMES) == len(ALL_NFS) + len(EXTENSION_NFS) + 2


@pytest.mark.parametrize("batch_size", [1, 7, 256])
@pytest.mark.parametrize("measure_latency", [False, True])
@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize("name", NF_NAMES)
def test_run_matches_per_packet_oracle(
    name, faulty, measure_latency, batch_size
):
    pipes = [
        XdpPipeline(
            _build_nf(name),
            faults=ALL_FAULTS.injector() if faulty else None,
        )
        for _ in range(2)
    ]
    want = oracle_run(pipes[0], TRACE, measure_latency)
    got = pipes[1].run(TRACE, measure_latency, batch_size)
    assert pipes[1].rt.now_ns == pipes[0].rt.now_ns
    if measure_latency:
        # One latency per frame that reached the hook, copies included.
        lost = pipes[1].faults.injected[PKT_DROP] if faulty else 0
        assert len(got.latencies_ns) == len(TRACE) - lost + got.duplicated
    else:
        assert got.latencies_ns == []
    if faulty:
        # Bails are booked first in their batch, so only the multiset
        # of latencies is pinned.
        want.latencies_ns.sort()
        got.latencies_ns.sort()
        assert pipes[1].faults.injected == pipes[0].faults.injected
    assert got == want


def test_fault_plan_fires_every_kind():
    injector = ALL_FAULTS.injector()
    XdpPipeline(_build_nf("flow_monitor"), faults=injector).run(TRACE)
    assert set(injector.injected) == set(ALL_FAULTS.rates())


@pytest.mark.parametrize("batch_size", [1, 7, 256])
@pytest.mark.parametrize(
    "plan",
    [FaultPlan(seed=3, drop_rate=1.0), FaultPlan(seed=3, helper_rate=1.0)],
    ids=["dropped", "bailed"],
)
def test_clock_reaches_faulted_arrivals(plan, batch_size):
    """Time passes for frames that never reach the NF, too."""
    pipes = [
        XdpPipeline(_build_nf("timewheel"), faults=plan.injector())
        for _ in range(2)
    ]
    want = oracle_run(pipes[0], TRACE)
    got = pipes[1].run(TRACE, batch_size=batch_size)
    assert got == want
    assert pipes[1].rt.now_ns == pipes[0].rt.now_ns == TRACE[-1].timestamp_ns


@pytest.mark.parametrize("batch_size", [1, 7, 256])
@pytest.mark.parametrize("shuffle_seed", [2, 6])
def test_clock_reaches_out_of_order_faulted_arrivals(shuffle_seed, batch_size):
    """A faulted frame's arrival reaches the clock before the next clean
    frame of its batch, even when that frame is stamped earlier."""
    stamps = [pkt.timestamp_ns for pkt in TRACE]
    random.Random(shuffle_seed).shuffle(stamps)
    trace = [
        dataclasses.replace(pkt, timestamp_ns=ts)
        for pkt, ts in zip(TRACE, stamps)
    ]
    pipes = [
        XdpPipeline(_build_nf("timewheel"), faults=ALL_FAULTS.injector())
        for _ in range(2)
    ]
    want = oracle_run(pipes[0], trace, measure_latency=True)
    got = pipes[1].run(trace, measure_latency=True, batch_size=batch_size)
    want.latencies_ns.sort()
    got.latencies_ns.sort()
    assert got == want
    assert pipes[1].rt.now_ns == pipes[0].rt.now_ns
