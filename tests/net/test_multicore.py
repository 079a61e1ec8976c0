"""Tests for the multi-queue RSS data plane (repro.net.multicore)."""

import pytest

from repro.ebpf.cost_model import ExecMode, NumaTopology
from repro.ebpf.percpu import merge_breakdowns, or_words, sum_matrices, sum_vectors
from repro.ebpf.runtime import BpfRuntime
from repro.net.flowgen import FlowGenerator
from repro.net.multicore import (
    RssDispatcher,
    merged_bloom_contains,
    merged_bloom_words,
    merged_countmin_estimate,
    merged_countmin_rows,
    shard_trace,
)
from repro.net.steering import RssSteering
from repro.net.xdp import XdpPipeline
from repro.nfs import BloomFilterNF, CountMinNF, MaglevNF, NitroSketchNF
from tests.net.per_packet import PerPacketNF


def countmin_factory(mode=ExecMode.ENETSTL, depth=4):
    return lambda core: CountMinNF(BpfRuntime(mode=mode, seed=core), depth=depth)


class TestRssSharding:
    def test_flow_affinity(self):
        """Every packet of a flow lands on the same queue."""
        fg = FlowGenerator(n_flows=64, seed=2)
        trace = fg.trace(2000)
        queues = shard_trace(trace, 4)
        owner = {}
        for core, queue in enumerate(queues):
            for pkt in queue:
                assert owner.setdefault(pkt.key_int, core) == core

    def test_sharding_is_complete_and_order_preserving(self):
        fg = FlowGenerator(n_flows=64, seed=2)
        trace = fg.trace(500)
        queues = shard_trace(trace, 4)
        rss = RssSteering(4)
        assert sum(len(q) for q in queues) == 500
        for core, queue in enumerate(queues):
            expected = [p for p in trace if rss.queue_of(p) == core]
            assert queue == expected

    def test_single_queue_passthrough(self):
        fg = FlowGenerator(n_flows=8, seed=2)
        trace = fg.trace(100)
        assert shard_trace(trace, 1) == [trace]

    def test_bad_core_count(self):
        with pytest.raises(ValueError):
            RssSteering(0)


class TestRssDispatcher:
    def test_uniform_trace_scales(self):
        """Aggregate PPS reaches >= 6x single-core at 8 cores (uniform)."""
        fg = FlowGenerator(n_flows=2048, seed=5)
        trace = fg.trace(16000)
        single = XdpPipeline(countmin_factory()(0)).run(trace)
        result = RssDispatcher(countmin_factory(), n_cores=8).run(trace)
        assert result.n_packets == 16000
        assert result.speedup_over(single) >= 6.0
        assert result.aggregate_pps > single.pps

    def test_zipf_trace_skews_imbalance(self):
        fg_uni = FlowGenerator(n_flows=2048, seed=5)
        fg_zipf = FlowGenerator(n_flows=2048, seed=5, distribution="zipf")
        uni = RssDispatcher(countmin_factory(), n_cores=8).run(fg_uni.trace(12000))
        zipf = RssDispatcher(countmin_factory(), n_cores=8).run(fg_zipf.trace(12000))
        assert zipf.imbalance > 1.0
        assert zipf.imbalance > uni.imbalance
        # Imbalance is exactly the aggregate-throughput penalty.
        ideal = zipf.n_packets * 2_200_000_000 / (zipf.total_cycles / zipf.n_cores)
        assert zipf.aggregate_pps == pytest.approx(ideal / zipf.imbalance)

    def test_batch_and_per_packet_paths_agree(self):
        fg = FlowGenerator(n_flows=256, seed=7)
        trace = fg.trace(4000)
        batched = RssDispatcher(countmin_factory(), n_cores=4).run(trace)
        factory = countmin_factory()
        unbatched = RssDispatcher(
            lambda core: PerPacketNF(factory(core)), n_cores=4
        ).run(trace)
        assert batched.per_core_cycles == unbatched.per_core_cycles
        assert batched.actions == unbatched.actions
        assert batched.by_category == unbatched.by_category

    def test_shared_runtime_rejected(self):
        rt = BpfRuntime(mode=ExecMode.ENETSTL)
        with pytest.raises(ValueError):
            RssDispatcher(lambda core: CountMinNF(rt), n_cores=2)

    def test_actions_aggregate(self):
        fg = FlowGenerator(n_flows=64, seed=9)
        trace = fg.trace(1000)
        factory = lambda core: MaglevNF(BpfRuntime(mode=ExecMode.KERNEL, seed=core))
        result = RssDispatcher(factory, n_cores=4).run(trace)
        assert result.actions == {"XDP_REDIRECT": 1000}

    def test_lossless_capture_check(self):
        fg = FlowGenerator(n_flows=2048, seed=5)
        trace = fg.trace(8000)
        result = RssDispatcher(countmin_factory(), n_cores=4).run(trace)
        assert result.lossless_at(0.0)
        assert result.lossless_at(result.max_lossless_pps * 0.99)
        assert not result.lossless_at(result.max_lossless_pps * 1.01)
        # The fleet absorbs more than one core can.
        single = XdpPipeline(countmin_factory()(0)).run(trace)
        assert result.max_lossless_pps > single.pps

    def test_fused_backend_matches_interp_under_dispatch(self):
        """Compiled (one-stage fused) IR NFs run on the batched
        multi-core path and produce the same per-core cycles, verdicts,
        and breakdowns as the interpreter backend."""
        from repro.ebpf.progs import get_case
        from repro.net.irnf import IrChainNf

        prog = get_case("nf_classifier").prog
        fg = FlowGenerator(n_flows=256, seed=13)
        trace = fg.trace(2000)
        results = {}
        for backend in ("interp", "fused"):
            factory = lambda core: IrChainNf(
                BpfRuntime(mode=ExecMode.ENETSTL, seed=core),
                [prog], seed=core, backend=backend,
            )
            results[backend] = RssDispatcher(factory, n_cores=4).run(trace)
        interp, fused = results["interp"], results["fused"]
        assert fused.per_core_cycles == interp.per_core_cycles
        assert fused.actions == interp.actions
        assert fused.by_category == interp.by_category

    def test_idle_cores_count_toward_imbalance_on_a_fixed_fleet(self):
        """One flow on four cores: the three idle queues are capacity
        steering wasted, so the busiest core carries 4x the mean."""
        trace = FlowGenerator(n_flows=1, seed=2).trace(300)
        result = RssDispatcher(countmin_factory(), n_cores=4).run(trace)
        assert sorted(r.n_packets for r in result.per_core) == [0, 0, 0, 300]
        assert result.imbalance == 4.0

    def test_empty_trace(self):
        result = RssDispatcher(countmin_factory(), n_cores=4).run([])
        assert result.n_packets == 0
        assert result.aggregate_pps == 0.0
        assert result.imbalance == 1.0
        assert result.lossless_at(1e9)
        assert result.max_lossless_pps == float("inf")


class TestNumaTopology:
    def test_node_of_contiguous_blocks(self):
        numa = NumaTopology(n_nodes=2)
        assert [numa.node_of(c, 8) for c in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_node_of_interleaved(self):
        numa = NumaTopology(n_nodes=2, interleave=True)
        assert [numa.node_of(c, 8) for c in range(8)] == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_node_of_uneven_core_count(self):
        numa = NumaTopology(n_nodes=2)
        nodes = [numa.node_of(c, 6) for c in range(6)]
        assert nodes == sorted(nodes)
        assert set(nodes) == {0, 1}

    def test_packet_penalty(self):
        numa = NumaTopology(n_nodes=2, remote_packet_cycles=60)
        assert numa.packet_penalty_cycles(0, 8) == 0  # NIC-local node
        assert numa.packet_penalty_cycles(7, 8) == 60

    def test_single_node_never_penalizes(self):
        numa = NumaTopology(n_nodes=1)
        assert all(numa.packet_penalty_cycles(c, 8) == 0 for c in range(8))

    def test_validation(self):
        with pytest.raises(ValueError):
            NumaTopology(n_nodes=0)
        with pytest.raises(ValueError):
            NumaTopology(n_nodes=2, nic_node=2)
        with pytest.raises(ValueError):
            NumaTopology(n_nodes=2, remote_packet_cycles=-1)


class TestNumaDispatch:
    def _run(self, numa):
        fg = FlowGenerator(n_flows=512, seed=5, distribution="zipf")
        return RssDispatcher(countmin_factory(), n_cores=8, numa=numa).run(
            fg.trace(6000)
        )

    def test_nf_cycles_bit_identical_across_topologies(self):
        """The penalty is a memory-system effect, not NF work: cycle
        accounting (totals and categories) must not change."""
        local = self._run(None)
        remote = self._run(NumaTopology(n_nodes=2))
        assert remote.total_cycles == local.total_cycles
        assert remote.per_core_cycles == local.per_core_cycles
        assert remote.by_category == local.by_category

    def test_penalty_lowers_wall_clock_metrics(self):
        local = self._run(None)
        remote = self._run(NumaTopology(n_nodes=2))
        assert remote.total_numa_cycles > 0
        assert remote.aggregate_pps <= local.aggregate_pps
        assert remote.wall_time_s >= local.wall_time_s
        assert remote.max_lossless_pps <= local.max_lossless_pps

    def test_penalty_accounting_is_per_packet(self):
        numa = NumaTopology(n_nodes=2, remote_packet_cycles=60)
        result = self._run(numa)
        for core, r in enumerate(result.per_core):
            expected = numa.packet_penalty_cycles(core, 8) * r.n_packets
            assert result.numa_cycles[core] == expected
        loaded = result.per_core_loaded_cycles
        assert loaded == [
            c + p for c, p in zip(result.per_core_cycles, result.numa_cycles)
        ]

    def test_single_node_topology_is_a_noop(self):
        local = self._run(None)
        one_node = self._run(NumaTopology(n_nodes=1))
        assert one_node.total_numa_cycles == 0
        assert one_node.aggregate_pps == local.aggregate_pps
        assert one_node.imbalance == local.imbalance


class TestPercpuMerge:
    def _sharded_and_reference(self, mode, depth=4, n_packets=6000):
        fg = FlowGenerator(n_flows=512, seed=11, distribution="zipf")
        trace = fg.trace(n_packets)
        factory = lambda core: CountMinNF(BpfRuntime(mode=mode, seed=core), depth=depth)
        disp = RssDispatcher(factory, n_cores=4)
        disp.run(trace)
        ref = CountMinNF(BpfRuntime(mode=mode, seed=0), depth=depth)
        XdpPipeline(ref).run(trace)
        return disp, ref, fg

    @pytest.mark.parametrize("mode", list(ExecMode))
    def test_sharded_countmin_equals_single_core(self, mode):
        disp, ref, fg = self._sharded_and_reference(mode)
        assert merged_countmin_rows(disp.nfs) == ref.rows
        for flow in fg.flows[:32]:
            key = flow.key_int
            assert merged_countmin_estimate(disp.nfs, key) == ref.true_free_estimate(key)

    def test_sharded_countmin_crc_path(self):
        """depth <= 2 uses the CRC column layout; merge must follow it."""
        disp, ref, fg = self._sharded_and_reference(ExecMode.ENETSTL, depth=2)
        for flow in fg.flows[:16]:
            key = flow.key_int
            assert merged_countmin_estimate(disp.nfs, key) == ref.true_free_estimate(key)

    def test_sharded_bloom_equals_single_core(self):
        fg = FlowGenerator(n_flows=128, seed=13)
        members = [f.key_int for f in fg.flows[:64]]
        factory = lambda core: BloomFilterNF(BpfRuntime(mode=ExecMode.ENETSTL, seed=core))
        disp = RssDispatcher(factory, n_cores=4)
        # Each core learns only the members RSS steers to it.
        for pkt in fg.flows[:64]:
            disp.nfs[disp.queue_of(pkt)].populate([pkt.key_int])
        ref = BloomFilterNF(BpfRuntime(mode=ExecMode.ENETSTL, seed=0))
        ref.populate(members)
        assert merged_bloom_words(disp.nfs) == ref.words
        for f in fg.flows:
            expected = f.key_int in ref.bloom
            assert merged_bloom_contains(disp.nfs, f.key_int) == expected
        for key in members:
            assert merged_bloom_contains(disp.nfs, key)

    def test_sharded_nitrosketch_merges(self):
        fg = FlowGenerator(n_flows=256, seed=17, distribution="zipf")
        trace = fg.trace(8000)
        factory = lambda core: NitroSketchNF(
            BpfRuntime(mode=ExecMode.KERNEL, seed=core), depth=4, update_prob=1.0
        )
        disp = RssDispatcher(factory, n_cores=4)
        disp.run(trace)
        ref = NitroSketchNF(BpfRuntime(mode=ExecMode.KERNEL, seed=0), depth=4, update_prob=1.0)
        XdpPipeline(ref).run(trace)
        # p=1.0 makes NitroSketch deterministic: every row updates on
        # every packet, so the sharded merge is exact.
        for flow in fg.flows[:16]:
            assert merged_countmin_estimate(disp.nfs, flow.key_int) == pytest.approx(
                ref.estimate(flow.key_int)
            )

    def test_merge_shape_validation(self):
        a = CountMinNF(BpfRuntime(seed=0), depth=4)
        b = CountMinNF(BpfRuntime(seed=1), depth=8)
        with pytest.raises(ValueError):
            merged_countmin_rows([a, b])
        with pytest.raises(ValueError):
            merged_countmin_rows([])

    def test_merge_rejects_mixed_row_hashes(self):
        """At depth 2 a pure-eBPF count-min hashes its rows with
        ``fast_hash32`` and a kernel one with ``crc_hash32``: one packet
        on each core must not merge into an estimate of 1."""
        pkt = FlowGenerator(n_flows=1, seed=3).flows[0]
        a = CountMinNF(BpfRuntime(mode=ExecMode.PURE_EBPF, seed=0), depth=2)
        b = CountMinNF(BpfRuntime(mode=ExecMode.KERNEL, seed=1), depth=2)
        for nf in (a, b):
            nf.process(pkt)
        assert (a.depth, a.width) == (b.depth, b.width)
        with pytest.raises(ValueError):
            merged_countmin_estimate([a, b], pkt.key_int)
        with pytest.raises(ValueError):
            merged_countmin_rows([a, b])

    def test_bloom_merge_rejects_mixed_geometry(self):
        """A key added on a core with one hash must not read absent
        through a merge that queries with the first core's four."""
        rt = lambda core: BpfRuntime(mode=ExecMode.ENETSTL, seed=core)
        a = BloomFilterNF(rt(0), n_hashes=4)
        b = BloomFilterNF(rt(1), n_hashes=1)
        key = FlowGenerator(n_flows=1, seed=3).flows[0].key_int
        b.populate([key])
        with pytest.raises(ValueError):
            merged_bloom_contains([a, b], key)
        with pytest.raises(ValueError):
            merged_bloom_words([a, b])
        with pytest.raises(ValueError):
            merged_bloom_words([a, BloomFilterNF(rt(2), n_bits=1 << 12)])
        with pytest.raises(ValueError):
            merged_bloom_words([])


class TestPercpuPrimitives:
    def test_sum_vectors(self):
        assert sum_vectors([[1, 2], [3, 4], [5, 6]]) == [9, 12]
        with pytest.raises(ValueError):
            sum_vectors([[1], [1, 2]])
        with pytest.raises(ValueError):
            sum_vectors([])

    def test_sum_matrices(self):
        assert sum_matrices([[[1, 0], [0, 1]], [[2, 2], [2, 2]]]) == [[3, 2], [2, 3]]
        with pytest.raises(ValueError):
            sum_matrices([[[1]], [[1], [2]]])

    def test_or_words(self):
        assert or_words([[0b01, 0b10], [0b10, 0b10]]) == [0b11, 0b10]
        with pytest.raises(ValueError):
            or_words([])

    def test_merge_breakdowns(self):
        from repro.ebpf.cost_model import Category

        merged = merge_breakdowns(
            [{Category.PARSE: 5}, {Category.PARSE: 7, Category.OTHER: 1}]
        )
        assert merged == {Category.PARSE: 12, Category.OTHER: 1}
