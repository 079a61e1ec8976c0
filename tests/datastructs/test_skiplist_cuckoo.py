"""Tests for the skip list and the blocked cuckoo hash table."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datastructs.cuckoo import BlockedCuckooTable
from repro.datastructs.skiplist import SkipList


class TestSkipList:
    def test_insert_lookup(self):
        sl = SkipList()
        assert sl.insert(5, "five")
        assert sl.lookup(5) == "five"
        assert sl.lookup(6) is None

    def test_insert_updates_existing(self):
        sl = SkipList()
        sl.insert(5, "a")
        assert not sl.insert(5, "b")   # not a new key
        assert sl.lookup(5) == "b"
        assert len(sl) == 1

    def test_delete(self):
        sl = SkipList()
        sl.insert(1, "x")
        assert sl.delete(1)
        assert not sl.delete(1)
        assert sl.lookup(1) is None
        assert len(sl) == 0

    def test_items_sorted(self):
        sl = SkipList()
        for k in (5, 1, 9, 3, 7):
            sl.insert(k, k * 10)
        assert list(sl.items()) == [(1, 10), (3, 30), (5, 50), (7, 70), (9, 90)]

    def test_contains(self):
        sl = SkipList()
        sl.insert(2, "y")
        assert 2 in sl and 3 not in sl

    def test_large_population(self):
        sl = SkipList(seed=3)
        for k in range(2000):
            sl.insert(k, k)
        assert len(sl) == 2000
        assert all(sl.lookup(k) == k for k in range(0, 2000, 97))

    def test_invalid_height(self):
        with pytest.raises(ValueError):
            SkipList(max_height=0)

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 50)), max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_reference(self, ops):
        sl = SkipList(seed=11)
        ref = {}
        for is_insert, key in ops:
            if is_insert:
                sl.insert(key, key * 2)
                ref[key] = key * 2
            else:
                assert sl.delete(key) == (key in ref)
                ref.pop(key, None)
        assert dict(sl.items()) == ref
        assert len(sl) == len(ref)


class TestBlockedCuckooTable:
    def test_insert_lookup_delete(self):
        t = BlockedCuckooTable(64, 8)
        assert t.insert(42, "v")
        assert t.lookup(42) == "v"
        assert t.delete(42)
        assert t.lookup(42) is None
        assert not t.delete(42)

    def test_update_in_place(self):
        t = BlockedCuckooTable(64, 8)
        t.insert(1, "a")
        t.insert(1, "b")
        assert t.lookup(1) == "b"
        assert len(t) == 1

    def test_high_load_factor_achievable(self):
        t = BlockedCuckooTable(256, 8)
        placed = sum(1 for k in range(int(t.capacity * 0.95)) if t.insert(k, k))
        assert placed >= int(t.capacity * 0.93)
        assert t.load_factor >= 0.9

    def test_all_inserted_found(self):
        t = BlockedCuckooTable(256, 8)
        keys = [k * 7919 + 13 for k in range(1500)]
        for k in keys:
            assert t.insert(k, k)
        assert all(t.lookup(k) == k for k in keys)

    def test_kicks_relocate_entries(self):
        t = BlockedCuckooTable(4, 2)   # tiny: forces kicks
        inserted = [k for k in range(8) if t.insert(k, k)]
        assert all(t.lookup(k) == k for k in inserted)

    def test_insert_fails_when_saturated(self):
        t = BlockedCuckooTable(2, 1)
        results = [t.insert(k, k) for k in range(10)]
        assert not all(results)   # a 2-slot table cannot hold 10 keys

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            BlockedCuckooTable(100, 8)

    def test_bucket_signatures_shape(self):
        t = BlockedCuckooTable(64, 8)
        t.insert(5, "v")
        index = t.index1(5) if t.probe_bucket(t.index1(5), 5) else t.index2(5)
        sigs = t.bucket_signatures(index)
        assert len(sigs) == 8
        assert t.signature(5) in sigs

    def test_avg_occupancy(self):
        t = BlockedCuckooTable(64, 8)
        for k in range(128):
            t.insert(k, k)
        assert t.avg_occupancy() == pytest.approx(2.0)

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 200)), max_size=250))
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_reference(self, ops):
        t = BlockedCuckooTable(128, 8)
        ref = {}
        for is_insert, key in ops:
            if is_insert:
                if t.insert(key, key):
                    ref[key] = key
            else:
                assert t.delete(key) == (key in ref)
                ref.pop(key, None)
        for key in ref:
            assert t.lookup(key) == ref[key]
        assert len(t) == len(ref)
