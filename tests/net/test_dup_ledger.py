"""The duplicate-fault ledger: ``duplicated`` counts copies replayed.

``injected[pkt_dup]`` is the injectors' cumulative draw ledger.  A
packet whose ``pkt_dup`` draw coincides with a helper fault is aborted
once and replays no copy, and a dispatcher's second ``run`` draws on
the same injectors as its first, so ``duplicated`` must count only the
extra copies actually replayed in the run it reports.
"""

import pytest

from repro.apps.ir import app_nf_factory
from repro.ebpf.cost_model import ExecMode
from repro.ebpf.runtime import BpfRuntime
from repro.faults import PKT_DUP, FaultPlan
from repro.net.flowgen import FlowGenerator
from repro.net.multicore import RssDispatcher
from repro.net.queueing import ArrivalProcess, QueueingConfig
from repro.net.slo import SloConfig
from repro.net.xdp import XdpPipeline
from repro.nfs import CountMinNF
from tests.net.per_packet import PerPacketNF

#: Dense enough that dup and helper draws coincide on many packets.
DUP_HELPER = FaultPlan(seed=3, dup_rate=0.3, helper_rate=0.3)
DUP_ONLY = FaultPlan(seed=4, dup_rate=0.1)


def _trace(n, seed=5):
    return FlowGenerator(n_flows=256, seed=seed, distribution="zipf").trace(n)


def _countmin(core):
    return CountMinNF(BpfRuntime(mode=ExecMode.ENETSTL, seed=core), depth=4)


def _drawn(injectors):
    return sum(inj.injected[PKT_DUP] for inj in injectors if inj is not None)


@pytest.mark.parametrize("batched", [False, True])
def test_pipeline_counts_only_replayed_copies(batched):
    injector = DUP_HELPER.injector()
    nf = _countmin(0) if batched else PerPacketNF(_countmin(0))
    pipeline = XdpPipeline(nf, faults=injector)
    trace = _trace(600)
    result = pipeline.run(trace)
    # Some dup draws were shadowed by a helper abort...
    assert 0 < result.duplicated < injector.injected[PKT_DUP]
    # ...and every verdict is an offered packet or a replayed copy.
    assert result.n_packets == len(trace) + result.duplicated


@pytest.mark.parametrize("queueing", [None, QueueingConfig()])
def test_dup_helper_coincidence_stays_accounted(queueing):
    disp = RssDispatcher(_countmin, n_cores=4, faults=DUP_HELPER,
                         queueing=queueing)
    res = disp.run(_trace(2000))
    assert res.duplicated < _drawn(disp.injectors)
    assert res.is_fully_accounted


@pytest.mark.parametrize("queueing", [None, QueueingConfig()])
def test_consecutive_runs_report_their_own_copies(queueing):
    disp = RssDispatcher(_countmin, n_cores=4, faults=DUP_ONLY,
                         queueing=queueing)
    first = disp.run(_trace(1500, seed=5))
    second = disp.run(_trace(1500, seed=6))
    for res in (first, second):
        assert res.duplicated > 0
        assert res.is_fully_accounted
    # Without helper faults every draw replays: the two runs split the
    # cumulative draw ledger between them.
    assert first.duplicated + second.duplicated == _drawn(disp.injectors)


def test_slo_controller_dup_helper_coincidence_stays_accounted():
    arrivals = ArrivalProcess(6e6, seed=5)
    trace = list(FlowGenerator(n_flows=512, distribution="zipf", seed=5)
                 .iter_trace_bursty(3000, arrivals))
    factory = app_nf_factory("rakelimit", backend="fused", registry_seed=6)
    ctrl = RssDispatcher(
        factory, n_cores=4, queueing=QueueingConfig(),
        faults=FaultPlan(seed=9, dup_rate=0.2, helper_rate=0.2,
                         crash_core=1, crash_at=400),
        slo=SloConfig(epoch_packets=512, initial_cores=2),
    )
    run = ctrl.run(trace)
    assert run.failures
    assert run.duplicated > 0
    assert run.is_fully_accounted
