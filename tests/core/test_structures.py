"""Tests for list-buckets and the random pools."""

import statistics

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import PoolEmptyError
from repro.core.structures.list_buckets import ListBuckets
from repro.core.structures.random_pool import GeoRandomPool, RandomPool
from repro.ebpf.cost_model import ExecMode
from repro.ebpf.runtime import BpfRuntime


def rt_for(mode=ExecMode.ENETSTL, seed=1):
    return BpfRuntime(mode=mode, seed=seed)


class TestListBuckets:
    def test_fifo_semantics(self):
        lb = ListBuckets(rt_for(), 8)
        lb.insert_tail(3, "a")
        lb.insert_tail(3, "b")
        assert lb.pop_front(3) == "a"
        assert lb.pop_front(3) == "b"
        assert lb.pop_front(3) is None

    def test_lifo_with_insert_front(self):
        lb = ListBuckets(rt_for(), 8)
        lb.insert_front(0, "a")
        lb.insert_front(0, "b")
        assert lb.pop_front(0) == "b"

    def test_buckets_are_independent(self):
        lb = ListBuckets(rt_for(), 4)
        lb.insert_tail(0, 1)
        lb.insert_tail(3, 2)
        assert lb.pop_front(3) == 2
        assert lb.pop_front(0) == 1

    def test_drain_returns_in_order(self):
        lb = ListBuckets(rt_for(), 4)
        for x in range(5):
            lb.insert_tail(2, x)
        assert lb.drain(2) == [0, 1, 2, 3, 4]
        assert lb.drain(2) == []

    def test_bitmap_tracks_occupancy(self):
        lb = ListBuckets(rt_for(), 128)
        assert lb.bitmap_word(0) == 0
        lb.insert_tail(5, "x")
        lb.insert_tail(70, "y")
        assert lb.bitmap_word(0) == 1 << 5
        assert lb.bitmap_word(1) == 1 << (70 - 64)
        lb.pop_front(5)
        assert lb.bitmap_word(0) == 0

    def test_len_and_bucket_len(self):
        lb = ListBuckets(rt_for(), 4)
        lb.insert_tail(1, "a")
        lb.insert_tail(1, "b")
        assert len(lb) == 2
        assert lb.bucket_len(1) == 2
        assert lb.is_empty(0) and not lb.is_empty(1)

    def test_index_bounds(self):
        lb = ListBuckets(rt_for(), 4)
        with pytest.raises(IndexError):
            lb.insert_tail(4, "x")
        with pytest.raises(IndexError):
            lb.pop_front(-1)

    def test_ebpf_ops_cost_more_than_enetstl(self):
        ebpf, enet = rt_for(ExecMode.PURE_EBPF), rt_for(ExecMode.ENETSTL)
        for rt in (ebpf, enet):
            lb = ListBuckets(rt, 8)
            lb.insert_tail(0, "x")
            lb.pop_front(0)
        assert ebpf.cycles.total > enet.cycles.total

    def test_enetstl_slightly_above_kernel(self):
        kern, enet = rt_for(ExecMode.KERNEL), rt_for(ExecMode.ENETSTL)
        for rt in (kern, enet):
            lb = ListBuckets(rt, 8)
            lb.insert_tail(0, "x")
            lb.pop_front(0)
        assert 0 < enet.cycles.total - kern.cycles.total < 2 * enet.costs.kfunc_call

    def test_empty_check_is_cheap(self):
        rt = rt_for(ExecMode.ENETSTL)
        lb = ListBuckets(rt, 8)
        rt.cycles.reset()
        lb.pop_front(0)   # empty
        empty_cost = rt.cycles.total
        lb.insert_tail(0, "x")
        rt.cycles.reset()
        lb.pop_front(0)
        assert empty_cost < rt.cycles.total

    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 100)),
                    max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_deques(self, ops):
        from collections import deque

        lb = ListBuckets(rt_for(), 8)
        ref = [deque() for _ in range(8)]
        for bucket, value in ops:
            lb.insert_tail(bucket, value)
            ref[bucket].append(value)
        for bucket in range(8):
            while ref[bucket]:
                assert lb.pop_front(bucket) == ref[bucket].popleft()
            assert lb.pop_front(bucket) is None


class TestRandomPool:
    def test_draw_returns_u32(self):
        pool = RandomPool(rt_for())
        for _ in range(100):
            assert 0 <= pool.draw() <= 0xFFFFFFFF

    def test_auto_refill(self):
        pool = RandomPool(rt_for(), capacity=64)
        for _ in range(500):
            pool.draw()
        assert pool.refills >= 1
        assert pool.level > 0

    def test_ebpf_mode_falls_back_to_helper(self):
        rt = rt_for(ExecMode.PURE_EBPF)
        pool = RandomPool(rt)
        rt.cycles.reset()
        pool.draw()
        assert rt.cycles.total == rt.costs.prandom_helper

    def test_pool_draw_cheaper_than_helper(self):
        enet, ebpf = rt_for(ExecMode.ENETSTL), rt_for(ExecMode.PURE_EBPF)
        p1, p2 = RandomPool(enet), RandomPool(ebpf)
        enet.cycles.reset()
        ebpf.cycles.reset()
        p1.draw()
        p2.draw()
        assert enet.cycles.total < ebpf.cycles.total

    def test_draw_many_batches_call_overhead(self):
        a, b = rt_for(), rt_for()
        pa, pb = RandomPool(a), RandomPool(b)
        a.cycles.reset()
        b.cycles.reset()
        pa.draw_many(8)
        for _ in range(8):
            pb.draw()
        assert a.cycles.total < b.cycles.total

    def test_draw_float_in_unit_interval(self):
        pool = RandomPool(rt_for())
        assert all(0.0 <= pool.draw_float() < 1.0 for _ in range(100))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RandomPool(rt_for(), capacity=0)


class TestGeoRandomPool:
    def test_mean_matches_geometric(self):
        """E[draws] = 1/p for a geometric distribution."""
        pool = GeoRandomPool(rt_for(seed=9), p=0.25, capacity=4096)
        samples = [pool.draw() for _ in range(4000)]
        assert statistics.mean(samples) == pytest.approx(4.0, rel=0.1)
        assert min(samples) >= 1

    def test_p_one_always_one(self):
        pool = GeoRandomPool(rt_for(), p=1.0)
        assert all(pool.draw() == 1 for _ in range(50))

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            GeoRandomPool(rt_for(), p=0.0)
        with pytest.raises(ValueError):
            GeoRandomPool(rt_for(), p=1.5)

    def test_ebpf_mode_rejected(self):
        pool = GeoRandomPool(rt_for(ExecMode.PURE_EBPF), p=0.5)
        with pytest.raises(PoolEmptyError):
            pool.draw()

    def test_draw_many(self):
        pool = GeoRandomPool(rt_for(), p=0.5)
        values = pool.draw_many(16)
        assert len(values) == 16 and all(v >= 1 for v in values)

    def test_auto_refill(self):
        pool = GeoRandomPool(rt_for(), p=0.9, capacity=32)
        for _ in range(200):
            pool.draw()
        assert pool.refills >= 1
