"""Data-plane hardening: containment, fault accounting, watchdog."""

import pytest

from repro.ebpf.cost_model import ExecMode
from repro.ebpf.runtime import BpfRuntime
from repro.faults import PKT_DROP, PKT_DUP, FaultPlan
from repro.net.flowgen import FlowGenerator
from repro.net.multicore import (
    AllCoresDeadError,
    CoreFailure,
    RssDispatcher,
)
from repro.net.packet import XdpAction
from repro.net.xdp import HELPER_ERROR, PARSE_ERROR, XdpPipeline
from repro.nfs import CountMinNF
from tests.net.per_packet import PerPacketNF


def trace(n, seed=5, n_flows=512):
    fg = FlowGenerator(n_flows=n_flows, seed=seed, distribution="zipf")
    return fg.trace(n)


def countmin_factory(core):
    return CountMinNF(BpfRuntime(mode=ExecMode.ENETSTL, seed=core), depth=4)


class ExplodingNF:
    """NF that raises on every k-th packet (per-packet path only)."""

    def __init__(self, rt, every=3):
        self.rt = rt
        self.every = every
        self.seen = 0

    def process(self, packet):
        self.seen += 1
        if self.seen % self.every == 0:
            raise RuntimeError("boom")
        return XdpAction.PASS


class ExplodingBatchNF(ExplodingNF):
    """Adds a process_batch that explodes when the batch spans a fault."""

    def process_batch(self, packets):
        out = {}
        for pkt in packets:
            action = self.process(pkt)
            out[action] = out.get(action, 0) + 1
        return out


class TestContainment:
    def test_nf_exception_becomes_aborted(self):
        pipeline = XdpPipeline(ExplodingNF(BpfRuntime()))
        result = pipeline.run(trace(30))
        assert result.aborted == 10
        assert result.actions[XdpAction.PASS] == 20
        assert result.errors == {"RuntimeError": 10}
        assert result.n_packets == 30
        assert result.n_packets == result.forwarded + result.dropped + result.aborted

    def test_invalid_action_still_hard_error(self):
        class BadNF:
            def __init__(self, rt):
                self.rt = rt

            def process(self, packet):
                return "XDP_NONSENSE"

        pipeline = XdpPipeline(BadNF(BpfRuntime()))
        with pytest.raises(ValueError, match="invalid XDP action"):
            pipeline.run(trace(1))

    def test_batch_path_contains_per_packet_fallback(self):
        pipeline = XdpPipeline(ExplodingNF(BpfRuntime()))
        result = pipeline.run(trace(30), batch_size=8)
        assert result.aborted == 10
        assert result.errors == {"RuntimeError": 10}
        assert result.n_packets == 30

    def test_batch_exception_aborts_whole_batch(self):
        pipeline = XdpPipeline(ExplodingBatchNF(BpfRuntime(), every=100))
        result = pipeline.run(trace(300), batch_size=64)
        # Batches containing packet 100/200/300 abort wholesale; the
        # rest pass.  Every packet still lands in exactly one verdict.
        assert result.n_packets == 300
        assert result.aborted > 0
        assert result.aborted % 64 == 0
        assert result.errors["RuntimeError"] == result.aborted // 64


class TestInjectedFaults:
    def test_fault_free_run_unchanged(self):
        t = trace(1000)
        plain = XdpPipeline(countmin_factory(0)).run(t)
        with_plan = XdpPipeline(
            countmin_factory(0), faults=FaultPlan(seed=1).injector()
        ).run(t)
        assert with_plan.n_packets == plain.n_packets
        assert with_plan.actions == plain.actions
        assert with_plan.total_cycles == plain.total_cycles

    def test_run_and_run_batch_identical_schedules(self):
        t = trace(2000)
        plan = FaultPlan.uniform(0.02, seed=13)
        per_packet = XdpPipeline(
            PerPacketNF(countmin_factory(0)), faults=plan.injector()
        ).run(t)
        batched = XdpPipeline(
            countmin_factory(0), faults=plan.injector()
        ).run(t, batch_size=128)
        assert per_packet.actions == batched.actions
        assert per_packet.errors == batched.errors
        assert per_packet.n_packets == batched.n_packets
        assert per_packet.total_cycles == batched.total_cycles

    def test_drop_faults_account_without_charges(self):
        t = trace(500)
        plan = FaultPlan(drop_rate=1.0, seed=3)
        result = XdpPipeline(
            countmin_factory(0), faults=plan.injector()
        ).run(t)
        assert result.dropped == 500
        assert result.total_cycles == 0

    def test_parse_faults_abort_with_error_tag(self):
        plan = FaultPlan(corrupt_rate=1.0, seed=3)
        result = XdpPipeline(
            countmin_factory(0), faults=plan.injector()
        ).run(trace(100))
        assert result.aborted == 100
        assert result.errors == {PARSE_ERROR: 100}

    def test_helper_faults_abort_with_error_tag(self):
        plan = FaultPlan(helper_rate=1.0, seed=3)
        result = XdpPipeline(
            countmin_factory(0), faults=plan.injector()
        ).run(trace(100))
        assert result.aborted == 100
        assert result.errors == {HELPER_ERROR: 100}

    def test_duplicates_add_verdicts(self):
        plan = FaultPlan(dup_rate=1.0, seed=3)
        injector = plan.injector()
        result = XdpPipeline(countmin_factory(0), faults=injector).run(
            trace(100)
        )
        assert injector.injected[PKT_DUP] == 100
        assert result.n_packets == 200
        assert result.actions[XdpAction.DROP] == 200


class TestWatchdog:
    def test_crash_resteers_to_survivors(self):
        plan = FaultPlan(crash_core=1, crash_at=100, seed=5)
        dispatcher = RssDispatcher(countmin_factory, n_cores=4, faults=plan)
        result = dispatcher.run(trace(4000), batch_size=64)
        assert result.is_fully_accounted
        assert result.lost == 0
        assert result.n_packets == 4000
        [failure] = result.failures
        assert isinstance(failure, CoreFailure)
        assert failure.kind == "crash" and failure.core == 1
        assert failure.processed == 100
        assert failure.resteered > 0
        assert result.per_core[1].n_packets == 100
        # The victim's later traffic landed on the survivors.
        assert sum(r.n_packets for r in result.per_core) == 4000

    def test_crash_at_zero_kills_core_before_any_packet(self):
        plan = FaultPlan(crash_core=2, crash_at=0)
        dispatcher = RssDispatcher(countmin_factory, n_cores=4, faults=plan)
        result = dispatcher.run(trace(2000), batch_size=64)
        assert result.per_core[2].n_packets == 0
        assert result.is_fully_accounted
        assert result.n_packets == 2000

    def test_wedge_loses_deadline_then_resteers(self):
        plan = FaultPlan(wedge_core=0, wedge_at=50)
        dispatcher = RssDispatcher(
            countmin_factory, n_cores=4, faults=plan, watchdog_deadline=128
        )
        result = dispatcher.run(trace(6000), batch_size=64)
        assert result.is_fully_accounted
        [failure] = result.failures
        assert failure.kind == "wedge" and failure.core == 0
        assert failure.processed == 50
        assert result.lost >= 128          # at least the deadline drained
        assert failure.resteered > 0       # traffic moved after detection
        assert result.n_packets == 6000 - result.lost
        assert result.dropped >= result.lost

    def test_wedge_below_deadline_detected_at_teardown(self):
        plan = FaultPlan(wedge_core=0, wedge_at=10)
        dispatcher = RssDispatcher(
            countmin_factory, n_cores=4, faults=plan, watchdog_deadline=10_000
        )
        result = dispatcher.run(trace(2000), batch_size=64)
        assert result.is_fully_accounted
        [failure] = result.failures
        assert failure.kind == "wedge"
        assert result.lost > 0

    def test_all_cores_dead_raises(self):
        plan = FaultPlan(crash_core=0, crash_at=0)
        dispatcher = RssDispatcher(countmin_factory, n_cores=1, faults=plan)
        with pytest.raises(AllCoresDeadError):
            dispatcher.run(trace(100))

    def test_watchdog_deadline_validated(self):
        with pytest.raises(ValueError):
            RssDispatcher(countmin_factory, n_cores=2, watchdog_deadline=0)

    def test_failover_preserves_flow_affinity(self):
        """Post-failure, each flow sticks to one surviving core."""
        plan = FaultPlan(crash_core=1, crash_at=0)

        seen = {}

        def spy_factory(core):
            nf = countmin_factory(core)
            original = nf.process_batch

            def record(packets, _core=core, _orig=original):
                for pkt in packets:
                    seen.setdefault(pkt.key_int, set()).add(_core)
                return _orig(packets)

            nf.process_batch = record
            return nf

        dispatcher = RssDispatcher(spy_factory, n_cores=4, faults=plan)
        dispatcher.run(trace(4000), batch_size=64)
        assert all(len(cores) == 1 for cores in seen.values())
        assert all(1 not in cores for cores in seen.values())


class TestMulticoreAccounting:
    def test_healthy_run_fully_accounted(self):
        dispatcher = RssDispatcher(countmin_factory, n_cores=4)
        result = dispatcher.run(trace(3000))
        assert result.packets_in == 3000
        assert result.is_fully_accounted
        assert result.failures == [] and result.lost == 0

    def test_faulty_run_fully_accounted(self):
        plan = FaultPlan.uniform(0.03, seed=21)
        dispatcher = RssDispatcher(countmin_factory, n_cores=4, faults=plan)
        result = dispatcher.run(trace(5000), batch_size=128)
        assert result.is_fully_accounted
        assert sum(result.injected.values()) > 0
        acc = result.accounting()
        assert acc["packets_in"] == 5000
        assert (
            acc["packets_in"] + acc["duplicated"]
            == acc["forwarded"] + acc["dropped"] + acc["aborted"]
        )

    def test_seeded_runs_bit_identical(self):
        """Satellite: identical plans -> identical BENCH-style metrics."""
        plan = FaultPlan.uniform(0.02, seed=33)

        def run():
            dispatcher = RssDispatcher(
                countmin_factory, n_cores=4, faults=FaultPlan.uniform(0.02, seed=33)
            )
            return dispatcher.run(trace(4000), batch_size=128)

        a, b = run(), run()
        assert a.accounting() == b.accounting()
        assert a.injected == b.injected
        assert a.errors == b.errors
        assert a.per_core_cycles == b.per_core_cycles
        assert a.aggregate_pps == b.aggregate_pps

    def test_per_core_injectors_are_decorrelated(self):
        plan = FaultPlan(drop_rate=0.05, seed=3)
        dispatcher = RssDispatcher(countmin_factory, n_cores=4, faults=plan)
        dispatcher.run(trace(4000))
        drops = [inj.injected.get(PKT_DROP, 0) for inj in dispatcher.injectors]
        assert sum(drops) > 0
        # With decorrelated streams the exact counts differ across cores.
        assert len(set(drops)) > 1
