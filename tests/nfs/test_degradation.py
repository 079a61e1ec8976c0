"""NF degradation policies: flow-table overflow, sketch aging, Maglev."""

import pytest

from repro.ebpf.cost_model import ExecMode
from repro.ebpf.runtime import BpfRuntime
from repro.faults import FaultPlan
from repro.net.flowgen import FlowGenerator
from repro.net.xdp import XdpPipeline
from repro.nfs import CountMinNF, FlowMonitorNF, MaglevNF, SketchDegradation
from tests.net.per_packet import PerPacketNF


def overflow_trace(n_flows, packets_per_flow=2, seed=9):
    """More distinct flows than the monitor's map can hold."""
    fg = FlowGenerator(n_flows=n_flows, seed=seed, distribution="round_robin")
    return fg.trace(n_flows * packets_per_flow)


class TestFlowMonitorOverflow:
    """Satellite: LRU eviction vs hash rejection when max_entries overflows."""

    def test_hash_map_aborts_on_overflow(self):
        nf = FlowMonitorNF(BpfRuntime(), max_entries=64, map_type="hash",
                           on_full="abort")
        result = XdpPipeline(nf).run(overflow_trace(256))
        # First 64 flows fit; later new flows abort on every packet.
        assert result.aborted > 0
        assert result.errors.get("MapFullError", 0) == result.aborted
        assert nf.n_flows == 64
        assert result.n_packets == result.forwarded + result.dropped + result.aborted

    def test_hash_map_drop_policy_degrades_gracefully(self):
        nf = FlowMonitorNF(BpfRuntime(), max_entries=64, map_type="hash",
                           on_full="drop")
        result = XdpPipeline(nf).run(overflow_trace(256))
        assert result.aborted == 0
        assert result.dropped > 0
        assert nf.rejected == result.dropped
        assert nf.n_flows == 64

    def test_lru_fallback_policy_tracks_overflow_flows(self):
        nf = FlowMonitorNF(BpfRuntime(), max_entries=64, map_type="hash",
                           on_full="fallback", fallback_entries=16)
        result = XdpPipeline(nf).run(overflow_trace(256))
        assert result.aborted == 0
        assert result.dropped == 0          # fallback forwards, never drops
        assert nf.fallback_hits > 0
        assert nf.rejected == nf.fallback_hits
        assert len(nf.fallback) <= 16

    def test_lru_map_evicts_instead_of_rejecting(self):
        nf = FlowMonitorNF(BpfRuntime(), max_entries=64, map_type="lru",
                           on_full="abort")
        result = XdpPipeline(nf).run(overflow_trace(256))
        assert result.aborted == 0          # eviction means no failures
        assert nf.evictions > 0
        assert nf.n_flows == 64

    @pytest.mark.parametrize("map_type", ["percpu", "lru_percpu"])
    def test_percpu_variants_match_their_base_semantics(self, map_type):
        nf = FlowMonitorNF(BpfRuntime(), max_entries=64, map_type=map_type,
                           on_full="drop")
        result = XdpPipeline(nf).run(overflow_trace(256))
        assert result.n_packets == 512
        if map_type == "percpu":
            assert nf.rejected > 0 and nf.evictions == 0
        else:
            assert nf.rejected == 0 and nf.evictions > 0
        assert result.aborted == 0

    def test_counts_survive_for_established_flows(self):
        nf = FlowMonitorNF(BpfRuntime(), max_entries=512, map_type="hash",
                           on_full="drop")
        trace = overflow_trace(128, packets_per_flow=4)
        XdpPipeline(nf).run(trace)
        assert nf.count_of(trace[0].key_int) == 4

    def test_injected_map_faults_hit_monitor(self):
        plan = FaultPlan(map_full_rate=0.5, seed=4)
        nf = FlowMonitorNF(BpfRuntime(), max_entries=10_000,
                           map_type="hash", on_full="drop")
        result = XdpPipeline(nf, faults=plan.injector()).run(
            overflow_trace(128)
        )
        assert nf.rejected > 0              # injection, not capacity
        assert result.aborted == 0

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            FlowMonitorNF(BpfRuntime(), map_type="tree")
        with pytest.raises(ValueError):
            FlowMonitorNF(BpfRuntime(), on_full="explode")


class TestSketchDegradation:
    def make_nf(self, policy, threshold=100, cap=None):
        degrade = SketchDegradation(threshold, policy=policy, cap=cap)
        return CountMinNF(BpfRuntime(), depth=2, width=64, degrade=degrade)

    def test_halve_decays_counters(self):
        nf = self.make_nf("halve")
        fg = FlowGenerator(n_flows=4, seed=2)
        XdpPipeline(nf).run(fg.trace(100))
        assert nf.degrade.events == 1
        assert sum(map(sum, nf.rows)) < 100 * nf.depth

    def test_reset_zeroes_sketch(self):
        nf = self.make_nf("reset")
        fg = FlowGenerator(n_flows=4, seed=2)
        XdpPipeline(nf).run(fg.trace(100))
        assert nf.degrade.events == 1
        assert sum(map(sum, nf.rows)) == 0

    def test_clamp_caps_counters(self):
        nf = self.make_nf("clamp", threshold=100, cap=10)
        fg = FlowGenerator(n_flows=1, seed=2)   # one flow hammers one cell
        XdpPipeline(nf).run(fg.trace(100))
        assert max(map(max, nf.rows)) <= 10

    def test_fires_every_threshold(self):
        nf = self.make_nf("halve", threshold=50)
        fg = FlowGenerator(n_flows=8, seed=2)
        XdpPipeline(nf).run(fg.trace(500), batch_size=64)
        assert nf.degrade.events >= 7

    def test_no_policy_no_change(self):
        fg = FlowGenerator(n_flows=8, seed=2)
        t = fg.trace(200)
        plain = CountMinNF(BpfRuntime(), depth=2, width=64)
        XdpPipeline(plain).run(t)
        with_policy = CountMinNF(
            BpfRuntime(), depth=2, width=64,
            degrade=SketchDegradation(10**9),
        )
        XdpPipeline(with_policy).run(t)
        # Never-firing policy: bit-identical state and cycles.
        assert with_policy.rows == plain.rows
        assert with_policy.rt.cycles.total == plain.rt.cycles.total

    @pytest.mark.parametrize("depth", [2, 4], ids=["crc", "simd"])
    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    @pytest.mark.parametrize("threshold", [1, 10])
    @pytest.mark.parametrize("policy", ["halve", "reset", "clamp"])
    def test_batch_ages_like_per_packet(self, policy, threshold, batch_size, depth):
        """The batch path fires at the same update counts as per packet,
        so the rows, the events and every charge match."""
        trace = FlowGenerator(n_flows=8, seed=2).trace(256)
        nfs = [
            CountMinNF(
                BpfRuntime(mode=ExecMode.ENETSTL), depth=depth, width=64,
                degrade=SketchDegradation(threshold, policy=policy, cap=3),
            )
            for _ in range(2)
        ]
        per_packet = XdpPipeline(PerPacketNF(nfs[0])).run(trace)
        batched = XdpPipeline(nfs[1]).run(trace, batch_size=batch_size)
        assert nfs[1].degrade.events == nfs[0].degrade.events == 256 // threshold
        assert nfs[1].rows == nfs[0].rows
        assert batched.by_category == per_packet.by_category

    def test_validation(self):
        with pytest.raises(ValueError):
            SketchDegradation(0)
        with pytest.raises(ValueError):
            SketchDegradation(10, policy="explode")
        with pytest.raises(ValueError):
            SketchDegradation(10, cap=-1)


class TestMaglevFailover:
    def test_fail_backend_rehashes_over_survivors(self):
        nf = MaglevNF(BpfRuntime())
        victim = nf.all_backends[0]
        nf.fail_backend(victim)
        assert nf.rehashes == 1
        assert victim not in nf.healthy_backends
        fg = FlowGenerator(n_flows=64, seed=3)
        XdpPipeline(nf).run(fg.trace(500))
        assert nf.dispatched[victim] == 0

    def test_failover_is_minimally_disruptive(self):
        healthy = MaglevNF(BpfRuntime())
        failed = MaglevNF(BpfRuntime())
        victim = failed.all_backends[0]
        failed.fail_backend(victim)
        moved = 0
        kept = 0
        for key in range(2000):
            before = healthy.table.lookup(key)
            after = failed.table.lookup(key)
            if before == victim:
                assert after != victim
            elif before == after:
                kept += 1
            else:
                moved += 1
        # Maglev's guarantee: healthy backends keep almost all flows.
        assert moved / (moved + kept) < 0.2

    def test_restore_backend(self):
        nf = MaglevNF(BpfRuntime())
        victim = nf.all_backends[2]
        nf.fail_backend(victim)
        nf.restore_backend(victim)
        assert nf.rehashes == 2
        assert victim in nf.healthy_backends

    def test_idempotent_and_validated(self):
        nf = MaglevNF(BpfRuntime())
        nf.fail_backend(nf.all_backends[0])
        nf.fail_backend(nf.all_backends[0])   # no-op, no extra rehash
        assert nf.rehashes == 1
        nf.restore_backend(nf.all_backends[1])  # not failed: no-op
        assert nf.rehashes == 1
        with pytest.raises(ValueError):
            nf.fail_backend("nonexistent")

    def test_cannot_fail_every_backend(self):
        nf = MaglevNF(BpfRuntime(), backends=("only",), table_size=13)
        with pytest.raises(ValueError):
            nf.fail_backend("only")
