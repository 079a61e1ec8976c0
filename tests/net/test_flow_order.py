"""Per-flow packet order across a core crash on the timed dispatch paths.

Per-CPU NF state is only coherent if every flow's packets reach it in
the order they arrived.  A crash splits the in-flight batch: the split
tail and the frames still waiting in the dead core's RX ring re-arrive
on the survivors.  The tail is older than anything in the ring, so it
has to be re-steered first, or a survivor serves a flow's later packets
before its earlier ones.
"""

import pytest

from repro.ebpf.cost_model import ExecMode
from repro.ebpf.runtime import BpfRuntime
from repro.faults import FaultPlan, WedgeDetection
from repro.net.flowgen import FlowGenerator
from repro.net.multicore import RssDispatcher
from repro.net.queueing import ArrivalProcess, QueueingConfig
from repro.net.slo import SloConfig, SloController
from repro.nfs import CountMinNF
from repro.nfs.degrade import ColdStartWarmup


def _trace():
    arrivals = ArrivalProcess.flash_crowd(4e6, 2e7, 0.0002, 0.0005, seed=5)
    gen = FlowGenerator(n_flows=512, seed=5, distribution="zipf")
    return list(gen.iter_trace_bursty(6000, arrivals))


class _ServiceLog:
    """An ``nf_factory`` whose NFs log the trace index of every packet
    they serve, in service order."""

    def __init__(self, trace):
        self.index = {id(pkt): i for i, pkt in enumerate(trace)}
        self.served = []

    def __call__(self, core):
        nf = CountMinNF(BpfRuntime(mode=ExecMode.ENETSTL, seed=core), depth=4)
        process_batch = nf.process_batch

        def logged(packets):
            self.served.extend(self.index[id(pkt)] for pkt in packets)
            return process_batch(packets)

        nf.process_batch = logged
        return nf

    def out_of_order(self, trace):
        """Packets served after a later packet of the same flow."""
        last = {}
        bad = 0
        for i in self.served:
            key = trace[i].key_int
            if last.get(key, -1) > i:
                bad += 1
            last[key] = max(last.get(key, -1), i)
        return bad


@pytest.mark.parametrize("n_cores", [2, 4])
def test_queued_dispatcher_keeps_flow_order_across_crash(n_cores):
    trace = _trace()
    log = _ServiceLog(trace)
    result = RssDispatcher(
        log,
        n_cores=n_cores,
        queueing=QueueingConfig(),
        faults=FaultPlan(crash_core=1, crash_at=800),
    ).run(trace)
    assert [f.kind for f in result.failures] == ["crash"]
    assert len(log.served) == result.n_packets
    assert log.out_of_order(trace) == 0


@pytest.mark.parametrize("initial_cores", [2, 4])
def test_slo_controller_keeps_flow_order_across_crash(initial_cores):
    trace = _trace()
    log = _ServiceLog(trace)
    run = SloController(
        log,
        max_cores=4,
        initial_cores=initial_cores,
        queueing=QueueingConfig(),
        config=SloConfig(target_p99_us=60.0, epoch_packets=512,
                         autoscale=False, rejoin_epochs=0),
        faults=FaultPlan(crash_core=1, crash_at=800),
        detection=WedgeDetection(seed=2),
        warmup=ColdStartWarmup(),
    ).run(trace)
    assert [f.kind for f in run.failures] == ["crash"]
    assert run.is_fully_accounted
    assert len(log.served) == run.forwarded + run.nf_dropped + run.aborted
    assert log.out_of_order(trace) == 0
