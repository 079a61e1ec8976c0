"""Fused chains under the queueing model (the PR 8 × PR 6 interaction).

PR 8's contract was "queueing off stays bit-identical"; PR 6's was
"fused equals interp bit for bit".  Nothing pinned the *product*:
a fused :class:`~repro.net.irnf.IrChainNf` running behind per-core RX
rings with batch coalescing, softirq deferral, and a chaos schedule.
These tests assert the fused backend reports identical cycle totals,
verdict accounting, fault schedules, overflow drops, and sojourn
latencies to the interpreted reference — on the bundled 3-NF chain and
on the IR app chains of :mod:`repro.apps.ir`.
"""

import pytest

from repro.apps.ir import app_nf_factory
from repro.ebpf.progs import NF_CHAIN_STAGES, get_case
from repro.faults import FaultPlan
from repro.net.flowgen import FlowGenerator
from repro.net.multicore import RssDispatcher, chain_nf_factory
from repro.net.queueing import ArrivalProcess, QueueingConfig

SEED = 4099
PROGS = [get_case(n).prog for n in NF_CHAIN_STAGES]
QCFG = QueueingConfig(rx_ring_size=96, batch_timeout_ns=15_000)
CHAOS = FaultPlan(
    seed=31,
    drop_rate=0.02,
    corrupt_rate=0.02,
    helper_rate=0.01,
    map_full_rate=0.01,
)


def _bursty_trace(n=1400, seed=SEED):
    gen = FlowGenerator(
        n_flows=160, distribution="zipf", zipf_s=1.1, seed=seed
    )
    arrivals = ArrivalProcess.flash_crowd(
        base_pps=300_000,
        peak_pps=2_400_000,
        lead_s=0.0008,
        burst_s=0.0012,
        seed=seed,
    )
    return list(gen.iter_trace_bursty(n, arrivals))


def _queued_witness(res):
    return (
        dict(res.actions),
        res.total_cycles,
        res.packets_in,
        res.lost,
        dict(res.injected),
        tuple(res.overflow),
        tuple(res.latencies_ns),
    )


def _dispatch(factory, trace, queueing, faults=None):
    disp = RssDispatcher(
        factory,
        n_cores=3,
        steering="ntuple",
        queueing=queueing,
        faults=faults,
    )
    res = disp.run(trace)
    assert res.is_fully_accounted
    return res


def test_bundled_chain_fused_vs_interp_under_queueing():
    trace = _bursty_trace()
    witnesses = {}
    for backend in ("interp", "fused"):
        res = _dispatch(
            chain_nf_factory(PROGS, backend=backend, registry_seed=1),
            trace,
            QCFG,
        )
        witnesses[backend] = _queued_witness(res)
    assert witnesses["interp"] == witnesses["fused"]


def test_bundled_chain_fused_vs_interp_under_queueing_and_chaos():
    trace = _bursty_trace(seed=SEED + 1)
    witnesses = {}
    for backend in ("interp", "fused"):
        res = _dispatch(
            chain_nf_factory(PROGS, backend=backend, registry_seed=2),
            trace,
            QCFG,
            faults=CHAOS,
        )
        witnesses[backend] = _queued_witness(res)
    # Identical fault schedule is part of the witness (injected dict),
    # not just identical totals — and the schedule must be non-empty.
    assert witnesses["interp"] == witnesses["fused"]
    assert sum(witnesses["interp"][4].values()) > 0


@pytest.mark.parametrize("app", ("katran", "sketches"))
def test_app_chain_fused_vs_interp_under_queueing_and_chaos(app):
    trace = _bursty_trace(seed=SEED + 2)
    witnesses = {}
    for backend in ("interp", "fused"):
        res = _dispatch(
            app_nf_factory(app, backend=backend, registry_seed=3),
            trace,
            QCFG,
            faults=CHAOS,
        )
        witnesses[backend] = _queued_witness(res)
    assert witnesses["interp"] == witnesses["fused"]


def test_queueing_off_is_cycle_identical_for_fused_apps():
    """Queueing changes latency accounting, never execution: the fused
    app chain charges the same cycles with the model on and off."""
    trace = _bursty_trace(seed=SEED + 3)
    results = {}
    for queueing in (None, QCFG):
        res = _dispatch(
            app_nf_factory("katran", backend="fused", registry_seed=4),
            trace,
            queueing,
        )
        results[queueing is None] = (dict(res.actions), res.total_cycles)
    assert results[True] == results[False]


def test_fused_app_overflow_drops_are_accounted():
    tight = QueueingConfig(rx_ring_size=8, batch_timeout_ns=50_000)
    trace = _bursty_trace(seed=SEED + 4)
    res = _dispatch(
        app_nf_factory("rakelimit", backend="fused", registry_seed=5),
        trace,
        tight,
    )
    assert res.overflow_drops > 0
    assert res.p99_latency_us > 0.0
