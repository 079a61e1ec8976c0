"""Pinned witnesses of the dispatch loops.

The parity suites compare backends of one build with each other; these
tests compare a build with a recorded past.  Each scenario runs one
dispatch path -- :meth:`RssDispatcher.run` buffered (``queueing=None``)
or timed (with a :class:`QueueingConfig`), and with the SLO loop, built
both as ``RssDispatcher(slo=...)`` and through :class:`SloController`,
the name the benchmark harness builds it by -- healthy or under chaos
faults, a core crash or a core wedge, and
digests everything observable: packet accounting, error ledgers,
injected faults, cycles by category, per-NF raw returns, sojourn
latencies and the failure / SLO timeline.  ``RSS_GOLDEN`` and
``SLO_GOLDEN`` were recorded before the fault harness drew its
schedules in blocks and screened whole batches; the other digests were
recorded before the dispatch loops shared one fleet engine.  Any
refactor of the injector, the batch pre-screen, the pickup scheduling
or the watchdog that moves a single fault, cycle or nanosecond fails
here.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.apps.ir import app_nf_factory
from repro.ebpf.cost_model import NumaTopology
from repro.ebpf.runtime import BpfRuntime
from repro.faults import FaultPlan, WedgeDetection
from repro.net.flowgen import FlowGenerator
from repro.net.multicore import RssDispatcher
from repro.net.queueing import ArrivalProcess, BurstPhase, QueueingConfig
from repro.net.slo import SloConfig, SloController
from repro.nfs import FlowMonitorNF
from repro.nfs.degrade import ColdStartWarmup


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:24]


class _Recording:
    """An ``nf_factory`` that remembers every NF it built, in order."""

    def __init__(self, factory):
        self.factory = factory
        self.built = []

    def __call__(self, core):
        nf = self.factory(core)
        self.built.append(nf)
        return nf


def _nf_witness(nfs):
    by_category = {}
    injected = {}
    for nf in nfs:
        for cat, cycles in nf.rt.cycles.breakdown().items():
            by_category[cat.name] = by_category.get(cat.name, 0) + cycles
        if nf.rt.faults is not None:
            for kind, n in nf.rt.faults.injected.items():
                injected[kind] = injected.get(kind, 0) + n
    return {
        "by_category": sorted(by_category.items()),
        "injected": sorted(injected.items()),
        "returns": [getattr(nf, "returns", None) for nf in nfs],
    }


def _flow_monitor(core):
    return FlowMonitorNF(BpfRuntime(seed=core), max_entries=256,
                         on_full="fallback")


RSS_NFS = {
    "katran-fused": lambda: app_nf_factory(
        "katran", backend="fused", registry_seed=4),
    # Hash-map NF without process_batch: map-update faults interleave
    # with the packet screen on the per-packet fallback path.
    "flow-monitor": lambda: _flow_monitor,
}

RSS_GOLDEN = {
    "katran-fused": "cc35a2a2baf356d1da9bf81c",
    "flow-monitor": "4199b6fd8a1e005d0b730da2",
}


def _rss_trace():
    arrivals = ArrivalProcess.flash_crowd(
        base_pps=500_000.0, peak_pps=3_500_000.0,
        lead_s=0.003, burst_s=0.0006, seed=11,
    )
    gen = FlowGenerator(n_flows=512, distribution="zipf", zipf_s=1.1,
                        seed=11)
    return list(gen.iter_trace_bursty(3000, arrivals))


@pytest.mark.parametrize("nf", sorted(RSS_NFS))
def test_rss_dispatcher_queued_chaos_crash_witness(nf):
    factory = _Recording(RSS_NFS[nf]())
    disp = RssDispatcher(
        factory,
        n_cores=4,
        steering="ntuple",
        queueing=QueueingConfig(rx_ring_size=64, batch_timeout_ns=20_000),
        # No duplicates: the digest predates the fix that made
        # ``duplicated`` count only the copies replayed in the reported
        # run (tests/net/test_dup_ledger.py covers that case).
        faults=FaultPlan(
            seed=78, drop_rate=0.02, corrupt_rate=0.02, truncate_rate=0.01,
            helper_rate=0.02, map_full_rate=0.03, map_nomem_rate=0.01,
            crash_core=2, crash_at=300,
        ),
    )
    trace = _rss_trace()
    results = [disp.run(trace[:1800]), disp.run(trace[1800:])]
    for res in results:
        assert res.is_fully_accounted
    assert any(res.failures for res in results)
    witness = {
        "accounting": [res.accounting() for res in results],
        "errors": [sorted(res.errors.items()) for res in results],
        "failures": [[f.describe() for f in res.failures] for res in results],
        "overflow": [list(res.overflow) for res in results],
        "latencies": [res.latencies_ns for res in results],
        **_nf_witness(factory.built),
    }
    assert _digest(witness) == RSS_GOLDEN[nf]


SLO_GOLDEN = "bc2c23e8831adbb2f4c4f645"


def test_slo_controller_crash_autoscale_witness():
    burst = (BurstPhase(0.0004, 6e6), BurstPhase(0.0004, 2.4e7))
    arrivals = ArrivalProcess(6e6, phases=burst * 3, seed=5)
    gen = FlowGenerator(n_flows=1024, distribution="zipf", zipf_s=1.1,
                        seed=5)
    trace = list(gen.iter_trace_bursty(9000, arrivals))
    # No helper faults: the digest predates the fix for a duplicate
    # shadowed by a helper abort (tests/net/test_dup_ledger.py).
    plan = FaultPlan(seed=9, drop_rate=0.01, corrupt_rate=0.01,
                     dup_rate=0.02, crash_core=1, crash_at=1500)
    config = SloConfig(target_p99_us=60.0, epoch_packets=512,
                       autoscale=True, rejoin_epochs=4)

    def controller(factory):
        return SloController(
            factory, max_cores=4, initial_cores=2,
            queueing=QueueingConfig(), config=config, faults=plan,
            warmup=ColdStartWarmup(),
        )

    def dispatcher(factory):
        return RssDispatcher(
            factory, n_cores=4, queueing=QueueingConfig(), faults=plan,
            slo=replace(config, initial_cores=2, warmup=ColdStartWarmup()),
        )

    for build in (controller, dispatcher):
        factory = _Recording(
            app_nf_factory("rakelimit", backend="fused", registry_seed=6))
        run = build(factory).run(trace)
        assert run.is_fully_accounted
        assert run.failures
        events = [e for epoch in run.timeline for e in epoch.events]
        assert any(e.startswith("scale-up") for e in events)
        witness = {
            "accounting": run.accounting(),
            "failures": [f.describe() for f in run.failures],
            "timeline": [e.describe() for e in run.timeline],
            "latencies": run.latencies_ns,
            **_nf_witness(factory.built),
        }
        assert _digest(witness) == SLO_GOLDEN, build.__name__


# -- buffered dispatch (queueing=None) ---------------------------------------

def _dispatcher_witness(results, nfs):
    return {
        "accounting": [res.accounting() for res in results],
        "errors": [sorted(res.errors.items()) for res in results],
        "failures": [[f.describe() for f in res.failures] for res in results],
        "per_core": [
            [(r.n_packets, r.total_cycles) for r in res.per_core]
            for res in results
        ],
        "numa": [list(res.numa_cycles) for res in results],
        "overflow": [list(res.overflow) for res in results],
        "latencies": [res.latencies_ns for res in results],
        **_nf_witness(nfs),
    }


def _zipf_trace(n=3000, seed=11):
    gen = FlowGenerator(n_flows=512, distribution="zipf", zipf_s=1.1,
                        seed=seed)
    return gen.trace(n)


BUFFERED_HEALTHY_GOLDEN = {
    "katran-fused": "90292cb225c46b453eaada8c",
    "flow-monitor": "d8ad909d3898ff3841b8a866",
}


@pytest.mark.parametrize("nf", sorted(RSS_NFS))
def test_rss_dispatcher_buffered_healthy_witness(nf):
    factory = _Recording(RSS_NFS[nf]())
    disp = RssDispatcher(factory, n_cores=4, steering="ntuple",
                         numa=NumaTopology())
    trace = _zipf_trace()
    results = [disp.run(trace[:1800], batch_size=64),
               disp.run(iter(trace[1800:]))]
    for res in results:
        assert res.is_fully_accounted and not res.failures
    witness = _dispatcher_witness(results, factory.built)
    assert _digest(witness) == BUFFERED_HEALTHY_GOLDEN[nf]


BUFFERED_FAULT_GOLDEN = {
    "crash": "a7b840d6d0c4d369384b4193",
    "wedge": "406e6d5c1bc9b988a69e6e33",
}

_BUFFERED_FAULTS = {
    "crash": dict(crash_core=2, crash_at=300),
    "wedge": dict(wedge_core=1, wedge_at=200),
}


@pytest.mark.parametrize("kind", sorted(_BUFFERED_FAULTS))
def test_rss_dispatcher_buffered_fault_witness(kind):
    factory = _Recording(RSS_NFS["katran-fused"]())
    disp = RssDispatcher(
        factory,
        n_cores=4,
        steering="ntuple",
        faults=FaultPlan(
            seed=31, drop_rate=0.02, corrupt_rate=0.02, helper_rate=0.02,
            map_full_rate=0.02, **_BUFFERED_FAULTS[kind],
        ),
        detection=WedgeDetection(mean_packets=256, min_packets=64, seed=3),
        repack_on_failure=True,
    )
    trace = _zipf_trace(4000)
    results = [disp.run(trace[:2500], batch_size=64), disp.run(trace[2500:])]
    for res in results:
        assert res.is_fully_accounted
    [failure] = results[0].failures
    assert failure.kind == kind and failure.repacked
    witness = _dispatcher_witness(results, factory.built)
    assert _digest(witness) == BUFFERED_FAULT_GOLDEN[kind]


# -- timed dispatch: a queued wedge ------------------------------------------

QUEUED_WEDGE_GOLDEN = "11343420a6b2bb9b011e9109"


def test_rss_dispatcher_queued_wedge_witness():
    factory = _Recording(RSS_NFS["flow-monitor"]())
    disp = RssDispatcher(
        factory,
        n_cores=4,
        queueing=QueueingConfig(rx_ring_size=64, batch_timeout_ns=20_000),
        faults=FaultPlan(seed=5, drop_rate=0.02, map_full_rate=0.02,
                         wedge_core=3, wedge_at=150),
        detection=WedgeDetection(mean_packets=300, min_packets=64, seed=8),
    )
    results = [disp.run(_rss_trace())]
    assert results[0].is_fully_accounted
    [failure] = results[0].failures
    assert failure.kind == "wedge" and failure.lost > 0
    witness = _dispatcher_witness(results, factory.built)
    assert _digest(witness) == QUEUED_WEDGE_GOLDEN


# -- SloController: wedge, scale-down and rejoin ----------------------------

SLO_WEDGE_GOLDEN = {
    "autoscale": "c03158e628a0232a8c0921a0",
    "fixed": "2ddc46fa83e3fee2dbc244cb",
}

_SLO_WEDGE_EVENTS = {
    # Over-provisioned for the base load and short for the burst: the
    # scaler parks two cores, then brings the repaired one back cold.
    "autoscale": ("wedge", "scale-down", "scale-up"),
    # No scaler: the repaired core rejoins the provisioned fleet.
    "fixed": ("wedge", "rejoin"),
}


@pytest.mark.parametrize("mode", sorted(_SLO_WEDGE_EVENTS))
def test_slo_controller_wedge_witness(mode):
    arrivals = ArrivalProcess(
        3e6, phases=(BurstPhase(0.0005, 3e6), BurstPhase(0.0003, 1.2e7)),
        seed=4,
    )
    gen = FlowGenerator(n_flows=1024, distribution="zipf", zipf_s=1.1,
                        seed=4)
    trace = list(gen.iter_trace_bursty(7000, arrivals))
    factory = _Recording(_flow_monitor)
    ctrl = SloController(
        factory,
        max_cores=4,
        queueing=QueueingConfig(),
        config=SloConfig(target_p99_us=100.0, epoch_packets=512,
                         autoscale=mode == "autoscale", min_cores=2,
                         cooldown_epochs=0, rejoin_epochs=2),
        faults=FaultPlan(seed=3, drop_rate=0.01, map_full_rate=0.02,
                         wedge_core=1, wedge_at=400),
        detection=WedgeDetection(mean_packets=200, min_packets=64, seed=6),
        warmup=ColdStartWarmup(),
    )
    run = ctrl.run(trace)
    assert run.is_fully_accounted
    events = [e for epoch in run.timeline for e in epoch.events]
    for prefix in _SLO_WEDGE_EVENTS[mode]:
        assert any(e.startswith(prefix) for e in events), (prefix, events)
    witness = {
        "accounting": run.accounting(),
        "failures": [f.describe() for f in run.failures],
        "timeline": [e.describe() for e in run.timeline],
        "latencies": run.latencies_ns,
        **_nf_witness(factory.built),
    }
    assert _digest(witness) == SLO_WEDGE_GOLDEN[mode]
