#!/usr/bin/env python3
"""SLO recovery: crash a core under load and watch p99 heal.

The queueing model makes tail latency an observable; this example makes
it a *target*.  A fleet of per-core count-min pipelines serves a steady
8 Mpps Poisson stream — fine for 2 cores, hopeless for 1.  Mid-run one
of the two active cores crashes and loses its per-CPU state.  Two
control planes race the same deterministic scenario:

- **autoscaler on** — the SLO loop re-packs the indirection table over
  the survivor, notices p99 blow past the 60 us target, and activates
  parked cores (hysteresis + cooldown + backoff); the repaired core
  later rejoins cold and pays a warm-up penalty while its sketches
  refill.
- **autoscaler off** — the fleet re-packs but never grows; with the
  dead core gone for good, p99 never comes back under target.

Run:  python examples/slo_recovery.py
"""

from repro.ebpf.cost_model import ExecMode
from repro.ebpf.runtime import BpfRuntime
from repro.faults import FaultPlan, WedgeDetection
from repro.net.flowgen import FlowGenerator
from repro.net.multicore import RssDispatcher
from repro.net.queueing import ArrivalProcess, QueueingConfig
from repro.net.slo import SloConfig
from repro.nfs import CountMinNF
from repro.nfs.degrade import ColdStartWarmup

TARGET_P99_US = 60.0
N_PACKETS = 14_000
OFFERED_PPS = 8e6


def factory(core: int) -> CountMinNF:
    """One private runtime + sketch per core (per-CPU eBPF semantics)."""
    return CountMinNF(BpfRuntime(mode=ExecMode.ENETSTL, seed=core), depth=4)


def make_trace():
    flows = FlowGenerator(n_flows=512, seed=5, distribution="zipf")
    arrivals = ArrivalProcess(OFFERED_PPS, seed=5)
    return list(flows.iter_trace_bursty(N_PACKETS, arrivals))


def run(trace, autoscale: bool, rejoin_epochs: int):
    dispatcher = RssDispatcher(
        factory,
        n_cores=4,
        queueing=QueueingConfig(),
        faults=FaultPlan(crash_core=1, crash_at=1500),
        detection=WedgeDetection(seed=2),
        slo=SloConfig(
            target_p99_us=TARGET_P99_US,
            epoch_packets=512,
            autoscale=autoscale,
            rejoin_epochs=rejoin_epochs,
            initial_cores=2,
            warmup=ColdStartWarmup(),
        ),
    )
    return dispatcher.run(trace)


def show_timeline(run_result) -> None:
    print("  epoch  cores  p50_us  p95_us  p99_us  SLO  events")
    for e in run_result.timeline:
        verdict = "ok " if e.meets(TARGET_P99_US) else "MISS"
        events = "; ".join(e.events) if e.events else "-"
        print(
            f"  {e.epoch:5d}  {e.n_active:5d}  {e.p50_us:6.1f}  "
            f"{e.p95_us:6.1f}  {e.p99_us:6.1f}  {verdict}  {events}"
        )


def main() -> None:
    trace = make_trace()
    print(
        f"Scenario: {N_PACKETS} packets at {OFFERED_PPS/1e6:.0f} Mpps, "
        f"2 of 4 cores active, core 1 crashes after 1500 packets.\n"
        f"SLO: p99 <= {TARGET_P99_US:.0f} us.\n"
    )

    print("=== autoscaler ON (parked cores absorb the breach) ===")
    scaled = run(trace, autoscale=True, rejoin_epochs=4)
    show_timeline(scaled)
    recovery = scaled.recovery_s()
    assert recovery is not None, "autoscaled run should recover"
    print(f"\n  time from SLO breach to sustained compliance: "
          f"{recovery * 1e3:.2f} ms")
    print(f"  worst epoch p99: {scaled.worst_p99_us:.1f} us; "
          f"accounting balanced: {scaled.is_fully_accounted}")

    print("\n=== autoscaler OFF (fixed fleet, core never replaced) ===")
    fixed = run(trace, autoscale=False, rejoin_epochs=0)
    show_timeline(fixed)
    assert fixed.recovery_s() is None
    print(f"\n  p99 never returned under target "
          f"({len(fixed.violating_epochs())} violating epochs; "
          f"final fleet {fixed.timeline[-1].n_active} cores)")

    print(
        f"\nSame trace, same crash, same seeds: the control loop is the "
        f"only difference.\nOverall p99: "
        f"{scaled.latency_summary()['p99_us']:.1f} us with the "
        f"autoscaler vs {fixed.latency_summary()['p99_us']:.1f} us "
        f"without."
    )


if __name__ == "__main__":
    main()
