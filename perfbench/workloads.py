"""The benchmark's four workloads.

Each workload has the same four steps, so the runner and the tracer
treat them alike:

* ``inputs(seed)`` generates the packet trace from the seed.  It runs
  before any timer starts; the program only ever sees these packets.
* ``build(seed, backend)`` constructs the cold fleet: kfunc
  registries, verification and fusion.  This is the ``setup_s`` phase.
* ``replay(fleet, inputs, clock)`` is the measured phase.  ``clock``
  marks the wall time each time the program pulls the first packet of
  a fixed-size slice of the trace; the marks give the chunk times.
* ``outcome(fleet, outputs)`` condenses the outputs into the witness
  (the one definition the correctness gate compares) and the modeled
  numbers (cycle accounting, deterministic for a seed).

Load shape: one process, one thread, closed loop in wall time -- every
trace is replayed as fast as the simulator allows.  ``cluster-day`` and
``slo-crash`` carry simulated-time arrival stamps, so their modeled RX
queues can grow (open loop in simulated time).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence

from repro.apps.ir import IR_APP_NAMES, app_nf_factory
from repro.ebpf.cost_model import CPU_HZ
from repro.faults import FaultPlan
from repro.net.flowgen import FlowGenerator
from repro.net.multicore import MulticoreResult, RssDispatcher
from repro.net.queueing import ArrivalProcess, BurstPhase, QueueingConfig
from repro.net.slo import SloConfig, SloController, SloRun
from repro.net.stats import percentile
from repro.nfs.degrade import ColdStartWarmup

from spec import ChunkClock, Workload, digest

N_CORES = 4
ZIPF_S = 1.1


def fleet_witness(results: Sequence[Any], nfs: Sequence[Any]) -> Dict:
    """The one witness definition every workload and backend shares.

    Accounting ledger, per-kind errors and the SLO timeline per result;
    cycles by category, injected faults and per-core raw returns summed
    over every NF instance the run built (a rejoining SLO core gets a
    fresh one); and every per-packet latency.
    """
    by_cat: Dict[str, int] = {}
    injected: Dict[str, int] = {}
    for nf in nfs:
        for cat, cyc in nf.rt.cycles.breakdown().items():
            by_cat[cat.name] = by_cat.get(cat.name, 0) + cyc
        if nf.rt.faults is not None:
            for kind, n in nf.rt.faults.injected.items():
                injected[kind] = injected.get(kind, 0) + n
    return {
        "accounting": [r.accounting() for r in results],
        "errors": [sorted(getattr(r, "errors", {}).items()) for r in results],
        "timeline": digest([
            [e.describe() for e in getattr(r, "timeline", ())]
            for r in results
        ]),
        "by_category": sorted(by_cat.items()),
        "injected": sorted(injected.items()),
        "returns": digest([nf.returns for nf in nfs]),
        "latencies": digest([r.latencies_ns for r in results]),
    }


def _outcome(
    results: Sequence[Any], witness: Dict, busiest_cycles: Sequence[int]
) -> Dict:
    """Witness plus the modeled numbers from cycle accounting (pure
    functions of the seed).

    ``model_mpps`` is packets processed over the summed busiest-core
    time of each result; ``model_failed_frac`` counts XDP_ABORTED,
    watchdog-lost and RX-overflow packets over packets offered.  Every
    offered packet is one operation.
    """
    served = sum(r.forwarded + r.aborted + r.dropped - r.lost
                 - _overflow(r) for r in results)
    busy_s = sum(busiest_cycles) / CPU_HZ
    offered = sum(r.packets_in for r in results)
    bad = sum(r.aborted + r.lost + _overflow(r) for r in results)
    lat = [x for r in results for x in r.latencies_ns]
    return {
        "witness": witness,
        "packets": offered,
        "ops": offered,
        "model": {
            "model_mpps": served / busy_s / 1e6,
            "model_p99_us": percentile(lat, 99.0) / 1e3 if lat else 0.0,
            "model_failed_frac": bad / offered,
        },
    }


def _overflow(result: Any) -> int:
    if isinstance(result, MulticoreResult):
        return result.overflow_drops
    return result.overflow


def _zipf(n_flows: int, seed: int) -> FlowGenerator:
    return FlowGenerator(
        n_flows=n_flows, distribution="zipf", zipf_s=ZIPF_S, seed=seed
    )


# -- apps-rss ---------------------------------------------------------------

APPS_PACKETS = 24_000
APPS_FLOWS = 8192


def apps_inputs(seed: int) -> Dict:
    return {"trace": _zipf(APPS_FLOWS, seed).trace(APPS_PACKETS)}


def apps_build(seed: int, backend: str) -> Dict:
    return {
        app: RssDispatcher(
            app_nf_factory(app, backend=backend, registry_seed=2),
            n_cores=N_CORES,
            steering="ntuple",
        )
        for app in IR_APP_NAMES
    }


def apps_replay(fleet: Dict, inputs: Dict, clock: ChunkClock) -> List:
    out = []
    for disp in fleet.values():
        out.append(disp.run(clock.stream(inputs["trace"])))
        clock.end()
    return out


def apps_outcome(fleet: Dict, outputs: List) -> Dict:
    nfs = [nf for disp in fleet.values() for nf in disp.nfs]
    return _outcome(outputs, fleet_witness(outputs, nfs),
                    [r.busiest_core_cycles for r in outputs])


# -- cluster-day ------------------------------------------------------------

DAY_PACKETS = 48_000
DAY_FLOWS = 8192
#: The backend the control plane takes down between the two phases.
FAILED_REAL = 3


def day_inputs(seed: int) -> Dict:
    """Zipf flows stamped by a flash crowd: steady for the first half,
    a burst at 7x the base rate, then steady again."""
    base_pps = 500_000.0
    arrivals = ArrivalProcess.flash_crowd(
        base_pps=base_pps,
        peak_pps=3_500_000.0,
        lead_s=(DAY_PACKETS / 2) / base_pps,
        burst_s=(DAY_PACKETS / 4) / 3_500_000.0,
        seed=seed,
    )
    trace = list(_zipf(DAY_FLOWS, seed).iter_trace_bursty(
        DAY_PACKETS, arrivals))
    return {"trace": trace}


def day_build(seed: int, backend: str) -> RssDispatcher:
    chaos = FaultPlan(
        seed=77 + seed,
        drop_rate=0.02,
        corrupt_rate=0.02,
        truncate_rate=0.01,
        helper_rate=0.02,
        map_full_rate=0.02,
    )
    return RssDispatcher(
        app_nf_factory("katran", backend=backend, registry_seed=4),
        n_cores=N_CORES,
        steering="ntuple",
        queueing=QueueingConfig(rx_ring_size=256, batch_timeout_ns=20_000),
        faults=chaos,
    )


def day_replay(disp: RssDispatcher, inputs: Dict, clock: ChunkClock) -> Dict:
    trace = inputs["trace"]
    split = len(trace) // 2
    first = disp.run(clock.stream(trace[:split]))
    clock.end()
    # Control plane: one backend dies fleet-wide; every core's CH ring
    # repacks in place and sheds that real's connections.
    reports = [
        nf.registry.app_state.katran.fail_real(FAILED_REAL)
        for nf in disp.nfs
    ]
    second = disp.run(clock.stream(trace[split:]))
    clock.end()
    return {"results": [first, second], "reports": reports}


def day_outcome(disp: RssDispatcher, outputs: Dict) -> Dict:
    results = outputs["results"]
    witness = fleet_witness(results, disp.nfs)
    witness["failover"] = sorted(
        (k, v) for r in outputs["reports"] for k, v in r.items())
    return _outcome(results, witness,
                    [r.busiest_core_cycles for r in results])


# -- slo-crash --------------------------------------------------------------

SLO_PACKETS = 64_000
SLO_FLOWS = 4096
SLO_CRASH_CORE = 1
SLO_CRASH_AT = 1500


class _Fleet:
    """A pre-provisioned NF fleet for :class:`SloController`.

    The controller calls its factory once per core when a run starts
    and again for every core that rejoins cold.  The first
    ``max_cores`` calls hand out NFs built during set-up, so
    verification and fusion stay out of the measured phase; later
    calls build fresh NFs, as a reborn core must.
    """

    def __init__(self, factory: Callable[[int], Any], n_cores: int) -> None:
        self.factory = factory
        self.ready = {core: factory(core) for core in range(n_cores)}
        #: (core, nf) for every NF handed out, in order.
        self.built: List = []

    def __call__(self, core: int):
        nf = self.ready.pop(core, None)
        if nf is None:
            nf = self.factory(core)
        self.built.append((core, nf))
        return nf


def slo_inputs(seed: int) -> Dict:
    """Bursty Poisson arrivals: a base rate two cores can carry, with
    periodic bursts that need the parked cores."""
    burst = (BurstPhase(0.0008, 6e6), BurstPhase(0.0008, 2.4e7))
    arrivals = ArrivalProcess(6e6, phases=burst * 4, seed=seed)
    trace = list(_zipf(SLO_FLOWS, seed).iter_trace_bursty(
        SLO_PACKETS, arrivals))
    return {"trace": trace}


def slo_build(seed: int, backend: str) -> SloController:
    fleet = _Fleet(
        app_nf_factory("rakelimit", backend=backend, registry_seed=6),
        N_CORES,
    )
    return SloController(
        fleet,
        max_cores=N_CORES,
        initial_cores=2,
        queueing=QueueingConfig(),
        config=SloConfig(
            target_p99_us=60.0,
            epoch_packets=512,
            autoscale=True,
            rejoin_epochs=4,
        ),
        faults=FaultPlan(crash_core=SLO_CRASH_CORE, crash_at=SLO_CRASH_AT),
        warmup=ColdStartWarmup(),
    )


def slo_replay(ctrl: SloController, inputs: Dict, clock: ChunkClock) -> SloRun:
    run = ctrl.run(clock.stream(inputs["trace"]))
    clock.end()
    return run


def slo_outcome(ctrl: SloController, run: SloRun) -> Dict:
    built = ctrl.nf_factory.built
    nfs = [nf for _, nf in built]
    per_core = [0] * N_CORES
    for core, nf in built:
        per_core[core] += nf.rt.cycles.total
    witness = fleet_witness([run], nfs)
    witness["failures"] = [f.describe() for f in run.failures]
    return _outcome([run], witness, [max(per_core)])


WORKLOADS = {
    "apps-rss": Workload(apps_inputs, apps_build, apps_replay, apps_outcome,
                         parity_packets=1500),
    "cluster-day": Workload(day_inputs, day_build, day_replay, day_outcome),
    "slo-crash": Workload(slo_inputs, slo_build, slo_replay, slo_outcome,
                          parity_packets=4000),
}
