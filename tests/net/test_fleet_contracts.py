"""Fleet-level resilience and latency contracts.

Each test replays a whole fleet end to end and checks one promise the
data plane makes: every packet is accounted for at any fault rate, a
crash re-steers without loss while a wedge loses the packets behind
the stall, seeded runs repeat bit for bit, the receive-path model
turns offered load into tail latency without changing a cycle, and the
SLO loop heals a breach when it may scale and never when it may not.
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


def countmin_factory(core):
    return CountMinNF(BpfRuntime(mode=ExecMode.ENETSTL, seed=core), depth=4)


# -- buffered fleet: fault rates, watchdog, determinism ----------------------

RES_CORES = 8
RES_PACKETS = 8000
FAULT_RATES = (0.0, 0.001, 0.01, 0.05)
HEADLINE_RATE = 0.01


def zipf_stream(n_packets=RES_PACKETS):
    fg = FlowGenerator(n_flows=8192, seed=5, distribution="zipf", zipf_s=1.1)
    return fg.iter_trace(n_packets)


def run_fleet(plan=None, watchdog_deadline=512):
    return RssDispatcher(
        countmin_factory, n_cores=RES_CORES, faults=plan,
        watchdog_deadline=watchdog_deadline,
    ).run(zipf_stream())


@pytest.mark.parametrize("rate", FAULT_RATES)
def test_accounting_identity_at_every_fault_rate(rate):
    result = run_fleet(FaultPlan.uniform(rate, seed=11) if rate else None)
    acc = result.accounting()
    assert result.is_fully_accounted
    assert (acc["packets_in"] + acc["duplicated"]
            == acc["forwarded"] + acc["dropped"] + acc["aborted"])
    assert acc["packets_in"] == RES_PACKETS
    if rate:
        assert sum(result.injected.values()) > 0
    else:
        assert sum(result.injected.values()) == 0
    if rate == HEADLINE_RATE:
        assert result.n_errors > 0


def test_crash_resteers_without_loss_and_costs_throughput():
    healthy = run_fleet(FaultPlan.uniform(HEADLINE_RATE, seed=11))
    crashed = run_fleet(FaultPlan.uniform(
        HEADLINE_RATE, seed=11,
        crash_core=3, crash_at=RES_PACKETS // (4 * RES_CORES),
    ))
    assert crashed.is_fully_accounted
    [failure] = crashed.failures
    assert failure.kind == "crash"
    assert failure.resteered > 0
    assert crashed.lost == 0
    assert crashed.aggregate_mpps < healthy.aggregate_mpps


def test_wedge_loses_packets_behind_the_stall():
    wedged = run_fleet(FaultPlan.uniform(
        HEADLINE_RATE, seed=11,
        wedge_core=2, wedge_at=RES_PACKETS // (4 * RES_CORES),
    ), watchdog_deadline=512)
    assert wedged.is_fully_accounted
    [failure] = wedged.failures
    assert failure.kind == "wedge"
    assert failure.lost > 0
    assert wedged.lost >= 512


def test_same_seed_bit_identical_different_seed_diverges():
    a = run_fleet(FaultPlan.uniform(HEADLINE_RATE, seed=77))
    b = run_fleet(FaultPlan.uniform(HEADLINE_RATE, seed=77))
    assert a.accounting() == b.accounting()
    assert a.injected == b.injected
    assert a.errors == b.errors
    assert a.per_core_cycles == b.per_core_cycles
    c = run_fleet(FaultPlan.uniform(HEADLINE_RATE, seed=78))
    assert c.injected != a.injected or c.accounting() != a.accounting()


# -- timed fleet: latency vs offered load -------------------------------------

SLO_CORES = 4
LAT_PACKETS = 10_000
#: ~0.2x, 0.5x, 0.9x, 1.2x and 2.4x of what 4 count-min cores sustain.
LOADS = (4e6, 1e7, 1.8e7, 2.4e7, 4.8e7)


def bursty_trace(n_packets, arrivals):
    fg = FlowGenerator(n_flows=1024, seed=5, distribution="zipf", zipf_s=1.1)
    return list(fg.iter_trace_bursty(n_packets, arrivals))


def queued_run(trace):
    return RssDispatcher(
        countmin_factory, n_cores=SLO_CORES, queueing=QueueingConfig()
    ).run(trace)


def test_p99_rises_monotonically_with_offered_load():
    runs = [
        queued_run(bursty_trace(LAT_PACKETS, ArrivalProcess(pps, seed=5)))
        for pps in LOADS
    ]
    for run in runs:
        assert run.is_fully_accounted
    p99s = [run.latency_summary()["p99_us"] for run in runs]
    assert p99s == sorted(p99s)
    assert runs[0].overflow_drops == 0
    assert runs[-1].overflow_drops > 0

    flash = queued_run(bursty_trace(LAT_PACKETS, ArrivalProcess.flash_crowd(
        8e6, 4.8e7, lead_s=0.0002, burst_s=0.0004, seed=5)))
    assert flash.is_fully_accounted
    assert flash.latency_summary()["p99_us"] > p99s[0]


def test_queueing_on_or_off_charges_identical_cycles():
    trace = bursty_trace(6000, ArrivalProcess(1e7, seed=5))
    plain = RssDispatcher(countmin_factory, n_cores=SLO_CORES).run(trace)
    queued = queued_run(trace)
    assert queued.total_cycles == plain.total_cycles
    assert queued.actions == plain.actions


# -- SLO loop: crash vs wedge recovery, autoscaler ablation -------------------

SLO_PACKETS = 12_000
TARGET_P99_US = 60.0


def controlled_run(trace, *, autoscale, rejoin_epochs, faults,
                   detection=None):
    return SloController(
        countmin_factory,
        max_cores=SLO_CORES,
        initial_cores=2,
        queueing=QueueingConfig(),
        config=SloConfig(
            target_p99_us=TARGET_P99_US,
            epoch_packets=512,
            autoscale=autoscale,
            rejoin_epochs=rejoin_epochs,
        ),
        faults=faults,
        detection=detection,
        warmup=ColdStartWarmup(),
    ).run(trace)


@pytest.fixture(scope="module")
def slo_trace():
    return bursty_trace(SLO_PACKETS, ArrivalProcess(8e6, seed=5))


@pytest.mark.parametrize("kind", ["crash", "wedge"])
def test_slo_loop_recovers_from_crash_and_wedge(slo_trace, kind):
    plan = (FaultPlan(crash_core=1, crash_at=1500) if kind == "crash"
            else FaultPlan(wedge_core=1, wedge_at=1500))
    run = controlled_run(
        slo_trace, autoscale=True, rejoin_epochs=4, faults=plan,
        detection=WedgeDetection(mean_packets=512, min_packets=64, seed=2),
    )
    assert run.is_fully_accounted
    [failure] = run.failures
    assert failure.kind == kind
    assert run.recovery_s() is not None
    # A wedge silently eats packets until detected; a crash does not.
    if kind == "wedge":
        assert failure.lost > 0
    else:
        assert failure.lost == 0


def test_autoscaled_fleet_recovers_fixed_fleet_never(slo_trace):
    plan = FaultPlan(crash_core=1, crash_at=1500)
    scaled = controlled_run(slo_trace, autoscale=True, rejoin_epochs=0,
                            faults=plan)
    fixed = controlled_run(slo_trace, autoscale=False, rejoin_epochs=0,
                           faults=plan)
    assert scaled.is_fully_accounted and fixed.is_fully_accounted
    assert scaled.violating_epochs()
    assert scaled.recovery_s() is not None
    assert fixed.recovery_s() is None
    assert (scaled.latency_summary()["p99_us"]
            < fixed.latency_summary()["p99_us"])
    again = controlled_run(slo_trace, autoscale=True, rejoin_epochs=0,
                           faults=plan)
    assert ([e.describe() for e in again.timeline]
            == [e.describe() for e in scaled.timeline])
    assert again.latencies_ns == scaled.latencies_ns
