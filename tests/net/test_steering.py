"""Steering policies: imbalance improves on Zipf, accounting unchanged."""

import pytest

from repro.ebpf.cost_model import ExecMode
from repro.ebpf.runtime import BpfRuntime
from repro.net.flowgen import FlowGenerator
from repro.net.multicore import RssDispatcher, merged_countmin_rows
from repro.net.steering import (
    POLICIES,
    IndirectionTable,
    NtupleSteering,
    RekeySteering,
    RssSteering,
    RSS_HASH_SEED,
    make_policy,
)
from repro.net.xdp import XdpPipeline
from repro.nfs import CountMinNF

N_CORES = 8


def countmin_factory(core):
    return CountMinNF(BpfRuntime(mode=ExecMode.ENETSTL, seed=core), depth=4)


def zipf_trace(n_packets=12000, n_flows=8192, seed=5):
    return FlowGenerator(
        n_flows=n_flows, seed=seed, distribution="zipf"
    ).trace(n_packets)


def run_policy(policy, trace):
    return RssDispatcher(
        countmin_factory, n_cores=N_CORES, steering=policy
    ).run(trace)


class TestPolicyConstruction:
    def test_make_policy_by_name(self):
        for name, cls in POLICIES.items():
            assert isinstance(make_policy(name, 4), cls)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown steering policy"):
            make_policy("toeplitz++", 4)

    def test_bad_core_count(self):
        with pytest.raises(ValueError):
            RssSteering(0)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            RekeySteering(4, n_candidates=0)
        with pytest.raises(ValueError):
            RekeySteering(4, sample_size=0)
        with pytest.raises(ValueError):
            NtupleSteering(4, top_k=-1)
        with pytest.raises(ValueError):
            NtupleSteering(4, table_size=2)

    def test_core_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="built for 4 cores"):
            RssDispatcher(
                countmin_factory, n_cores=8, steering=RssSteering(4)
            )

    def test_dispatcher_accepts_policy_names(self):
        for name in POLICIES:
            disp = RssDispatcher(countmin_factory, n_cores=2, steering=name)
            assert disp.steering.name == name


class TestImbalanceImprovement:
    @pytest.fixture(scope="class")
    def results(self):
        trace = zipf_trace()
        return {
            name: run_policy(name, trace) for name in ("rss", "rekey", "ntuple")
        }

    def test_steered_strictly_beats_plain_rss_on_zipf(self, results):
        assert results["rekey"].imbalance < results["rss"].imbalance
        assert results["ntuple"].imbalance < results["rss"].imbalance

    def test_ntuple_hits_acceptance_bar(self, results):
        """The PR's headline: explicit steering <= 1.3 at 8 cores."""
        assert results["rss"].imbalance > 1.7
        assert results["ntuple"].imbalance <= 1.3

    def test_cycle_totals_identical_across_policies(self, results):
        """Steering moves packets, never changes what they cost."""
        totals = {r.total_cycles for r in results.values()}
        assert len(totals) == 1
        categories = [r.by_category for r in results.values()]
        assert categories[0] == categories[1] == categories[2]
        actions = [r.actions for r in results.values()]
        assert actions[0] == actions[1] == actions[2]

    def test_imbalance_is_throughput(self, results):
        """Lower imbalance is exactly higher aggregate PPS."""
        assert (
            results["ntuple"].aggregate_pps
            > results["rekey"].aggregate_pps
            > results["rss"].aggregate_pps
        )


def test_steering_never_worse_on_a_top_heavy_trace():
    """With 2048 flows the top flow alone carries more than 1/8 of the
    packets, so no policy reaches 1.3; steering must still never lose
    to plain RSS, and never change a cycle."""
    trace = zipf_trace(n_packets=6000, n_flows=2048)
    results = {
        name: run_policy(name, trace) for name in ("rss", "rekey", "ntuple")
    }
    rss = results["rss"].imbalance
    assert results["rekey"].imbalance <= rss
    assert results["ntuple"].imbalance <= rss
    assert len({r.total_cycles for r in results.values()}) == 1


class TestFlowAffinity:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_every_policy_preserves_flow_affinity(self, name):
        trace = zipf_trace(n_packets=6000, n_flows=512)
        disp = RssDispatcher(countmin_factory, n_cores=4, steering=name)
        disp.run(trace)
        owner = {}
        # Re-derive placement from the fitted policy; every packet of a
        # flow must map to one queue.
        for pkt in trace:
            queue = disp.queue_of(pkt)
            assert owner.setdefault(pkt.key_int, queue) == queue

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_sharded_sketch_still_merges_exactly(self, name):
        """Disjoint sharding holds under any steering: merge == single."""
        trace = zipf_trace(n_packets=6000, n_flows=512)
        disp = RssDispatcher(countmin_factory, n_cores=4, steering=name)
        disp.run(trace)
        ref = countmin_factory(0)
        XdpPipeline(ref).run(trace)
        assert merged_countmin_rows(disp.nfs) == ref.rows


class TestRekey:
    def test_deterministic_seed_choice(self):
        trace = zipf_trace(n_packets=5000)
        a = RekeySteering(N_CORES)
        b = RekeySteering(N_CORES)
        a.prepare(trace[: a.sample_size])
        b.prepare(trace[: b.sample_size])
        assert a.hash_seed == b.hash_seed
        assert a.sample_imbalance == b.sample_imbalance

    def test_never_worse_than_default_seed_on_sample(self):
        """Candidate 0 is the base seed, so the search can't regress."""
        trace = zipf_trace(n_packets=5000)
        base = RssSteering(N_CORES)
        rekey = RekeySteering(N_CORES)
        sample = trace[: rekey.sample_size]
        rekey.prepare(sample)
        loads_base = [0] * N_CORES
        loads_rekey = [0] * N_CORES
        for pkt in sample:
            loads_base[base.queue_of(pkt)] += 1
            loads_rekey[rekey.queue_of(pkt)] += 1

        def imb(loads):
            return max(loads) * len(loads) / sum(loads)

        assert imb(loads_rekey) <= imb(loads_base)

    def test_empty_sample_keeps_default_seed(self):
        rekey = RekeySteering(N_CORES)
        rekey.prepare([])
        assert rekey.hash_seed == RSS_HASH_SEED
        assert rekey.sample_imbalance is None


class TestNtuple:
    def test_pins_heaviest_flows(self):
        trace = zipf_trace(n_packets=8000)
        policy = NtupleSteering(N_CORES)
        policy.prepare(trace[: policy.sample_size])
        assert 0 < len(policy.pinned) <= policy.top_k
        # The single heaviest sampled flow must be pinned.
        from collections import Counter

        heaviest = Counter(
            p.key_int for p in trace[: policy.sample_size]
        ).most_common(1)[0][0]
        assert heaviest in policy.pinned

    def test_untrained_policy_routes_like_rss(self):
        """Before prepare(), the round-robin table mirrors plain RSS."""
        plain = RssSteering(8)
        ntuple = NtupleSteering(8)  # 8 divides 128
        for pkt in zipf_trace(n_packets=500, n_flows=64):
            assert ntuple.queue_of(pkt) == plain.queue_of(pkt)

    def test_describe_reports_fitted_state(self):
        trace = zipf_trace(n_packets=5000)
        policy = NtupleSteering(N_CORES)
        policy.prepare(trace[: policy.sample_size])
        assert len(policy.pinned) == policy.top_k
        assert len(policy.table) == policy.table_size == 128
        used = set(policy.table) | set(policy.pinned.values())
        assert used == set(range(N_CORES))

    def test_prepare_is_deterministic(self):
        trace = zipf_trace(n_packets=5000)
        a = NtupleSteering(N_CORES)
        b = NtupleSteering(N_CORES)
        a.prepare(trace[: a.sample_size])
        b.prepare(trace[: b.sample_size])
        assert a.pinned == b.pinned
        assert a.table == b.table


class TestRepackContract:
    """``repack`` returns None for a hash-only policy and, for a table
    policy, the number of rules and buckets that changed core."""

    HASH_ONLY = {"rss": RssSteering, "rekey": RekeySteering}
    TABLES = {"ntuple": NtupleSteering, "table": IndirectionTable}
    ALIVE = [0, 2, 3, 5, 7]

    @staticmethod
    def fitted(cls):
        trace = zipf_trace(n_packets=6000, n_flows=1024)
        policy = cls(N_CORES)
        policy.prepare(trace[:4096])
        return policy, trace

    @pytest.mark.parametrize("name", sorted(HASH_ONLY))
    def test_hash_only_repack_returns_none(self, name):
        policy, _ = self.fitted(self.HASH_ONLY[name])
        assert policy.repack(self.ALIVE) is None

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_table_repack_counts_changed_placements(self, name):
        policy, _ = self.fitted(self.TABLES[name])
        for cores in (self.ALIVE, range(N_CORES), [6], range(N_CORES)):
            table = list(policy.table)
            pinned = dict(getattr(policy, "pinned", {}))
            moved = policy.repack(cores)
            changed = sum(a != b for a, b in zip(table, policy.table))
            changed += sum(
                1 for key, queue in getattr(policy, "pinned", {}).items()
                if pinned.get(key) != queue
            )
            assert type(moved) is int
            assert moved == changed > 0
            assert policy.repack(cores) == 0

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_table_repack_names_only_live_cores(self, name):
        policy, trace = self.fitted(self.TABLES[name])
        policy.repack(self.ALIVE)
        assert {policy.queue_of(pkt) for pkt in trace} == set(self.ALIVE)

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_table_repack_rejects_bad_core_sets(self, name):
        policy, _ = self.fitted(self.TABLES[name])
        for cores in ([], [0, N_CORES], [-1, 0]):
            with pytest.raises(ValueError):
                policy.repack(cores)

    def test_one_table_class(self):
        import repro.net
        import repro.net.slo

        assert repro.net.slo.IndirectionTable is IndirectionTable
        assert repro.net.IndirectionTable is IndirectionTable
        assert issubclass(NtupleSteering, IndirectionTable)
