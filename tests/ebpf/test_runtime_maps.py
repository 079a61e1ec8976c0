"""Tests for the simulated runtime and BPF maps."""

import pytest

from repro.ebpf.cost_model import ExecMode
from repro.ebpf.maps import (
    BpfArrayMap,
    BpfHashMap,
    BpfLruHashMap,
    BpfPercpuArray,
    MapFullError,
)
from repro.ebpf.runtime import BpfRuntime


@pytest.fixture
def rt():
    return BpfRuntime(mode=ExecMode.PURE_EBPF, seed=1)


class TestRuntime:
    def test_prandom_is_deterministic_per_seed(self):
        a = BpfRuntime(seed=5)
        b = BpfRuntime(seed=5)
        assert [a.prandom_u32() for _ in range(10)] == [
            b.prandom_u32() for _ in range(10)
        ]

    def test_prandom_differs_across_seeds(self):
        a = BpfRuntime(seed=5)
        b = BpfRuntime(seed=6)
        assert [a.prandom_u32() for _ in range(5)] != [
            b.prandom_u32() for _ in range(5)
        ]

    def test_prandom_charges_helper_cost(self, rt):
        rt.prandom_u32()
        assert rt.cycles.total == rt.costs.prandom_helper

    def test_clock_advances_monotonically(self, rt):
        rt.advance_time_ns(100)
        rt.advance_time_ns(50)
        assert rt.now_ns == 150
        with pytest.raises(ValueError):
            rt.advance_time_ns(-1)

    def test_ktime_charges_helper_call(self, rt):
        rt.advance_time_ns(42)
        assert rt.ktime_get_ns() == 42
        assert rt.cycles.total == rt.costs.helper_call

    def test_spin_lock_charges(self, rt):
        rt.spin_lock()
        rt.spin_unlock()
        assert rt.cycles.total == rt.costs.spin_lock + rt.costs.spin_unlock

    def test_reset_clears_state(self, rt):
        rt.charge(100)
        rt.advance_time_ns(10)
        rt.reset(seed=1)
        assert rt.cycles.total == 0
        assert rt.now_ns == 0


class TestHashMap:
    def test_lookup_update_delete(self, rt):
        m = BpfHashMap(rt, max_entries=4)
        assert m.lookup("k") is None
        m.update("k", 1)
        assert m.lookup("k") == 1
        assert m.delete("k") is True
        assert m.delete("k") is False

    def test_max_entries_enforced(self, rt):
        m = BpfHashMap(rt, max_entries=2)
        m.update(1, "a")
        m.update(2, "b")
        with pytest.raises(MapFullError):
            m.update(3, "c")
        # Updating an existing key is fine at capacity.
        m.update(1, "a2")
        assert m.lookup(1) == "a2"

    def test_costs_charged(self, rt):
        m = BpfHashMap(rt, max_entries=4)
        m.update("k", 1)
        m.lookup("k")
        m.delete("k")
        expected = rt.costs.map_update + rt.costs.map_lookup + rt.costs.map_delete
        assert rt.cycles.total == expected

    def test_raw_access_uncosted(self, rt):
        m = BpfHashMap(rt, max_entries=4)
        m.raw_update("k", 9)
        assert m.raw_lookup("k") == 9
        assert rt.cycles.total == 0

    def test_invalid_max_entries(self, rt):
        with pytest.raises(ValueError):
            BpfHashMap(rt, max_entries=0)

    def test_len_and_contains(self, rt):
        m = BpfHashMap(rt, max_entries=4)
        m.update("a", 1)
        assert len(m) == 1
        assert "a" in m and "b" not in m


class TestArrayMap:
    def test_default_fill_and_bounds(self, rt):
        m = BpfArrayMap(rt, max_entries=3, default=0)
        assert m.lookup(0) == 0
        m.update(2, 7)
        assert m.lookup(2) == 7
        with pytest.raises(IndexError):
            m.lookup(3)
        with pytest.raises(IndexError):
            m.update(-1, 0)

    def test_len(self, rt):
        assert len(BpfArrayMap(rt, max_entries=5)) == 5


class TestPercpuArray:
    def test_per_cpu_isolation(self, rt):
        m = BpfPercpuArray(rt, max_entries=2, n_cpus=2, default=0)
        m.update(0, 5, cpu=0)
        m.update(0, 9, cpu=1)
        assert m.lookup(0, cpu=0) == 5
        assert m.lookup(0, cpu=1) == 9

    def test_cheaper_than_hash_lookup(self, rt):
        m = BpfPercpuArray(rt, max_entries=2)
        m.lookup(0)
        assert rt.cycles.total == rt.costs.percpu_array_lookup
        assert rt.cycles.total < rt.costs.map_lookup

    def test_bounds(self, rt):
        m = BpfPercpuArray(rt, max_entries=2, n_cpus=1)
        with pytest.raises(IndexError):
            m.lookup(0, cpu=1)
        with pytest.raises(IndexError):
            m.lookup(2, cpu=0)


class TestLruHashMap:
    def test_evicts_least_recent(self, rt):
        m = BpfLruHashMap(rt, max_entries=2)
        m.update("a", 1)
        m.update("b", 2)
        m.lookup("a")          # touch a; b becomes LRU
        m.update("c", 3)       # evicts b
        assert "b" not in m
        assert "a" in m and "c" in m

    def test_update_refreshes_recency(self, rt):
        m = BpfLruHashMap(rt, max_entries=2)
        m.update("a", 1)
        m.update("b", 2)
        m.update("a", 10)      # refresh a
        m.update("c", 3)       # evicts b, not a
        assert m.lookup("a") == 10
        assert "b" not in m

    def test_delete(self, rt):
        m = BpfLruHashMap(rt, max_entries=2)
        m.update("a", 1)
        assert m.delete("a") is True
        assert m.delete("a") is False
