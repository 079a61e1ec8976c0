"""``copy()`` on the blocked cuckoo table and the cuckoo filter.

The Fig. 3(c)/(g) sweeps fill one table per load factor and hand each
execution mode a copy, so a copy must be the table a fresh rebuild
would give -- layout, length and kick RNG state -- and must share no
mutable state with its original.
"""

import pytest

from repro.datastructs.cuckoo import BlockedCuckooTable
from repro.datastructs.cuckoo_filter import CuckooFilter


def _table_state(t):
    return (
        [[None if e is None else (e.sig, e.key, e.value) for e in b]
         for b in t._buckets],
        len(t),
        t._rng.getstate(),
    )


def _filter_state(f):
    return ([list(b) for b in f._buckets], len(f), f._rng.getstate())


def _build_table(keys):
    t = BlockedCuckooTable(n_buckets=64, slots_per_bucket=4)
    for k in keys:
        t.insert(k, k & 0xFFFF)
    return t


def _build_filter(keys):
    f = CuckooFilter(n_buckets=64, slots_per_bucket=4)
    for k in keys:
        f.insert(k)
    return f


KEYS = [k * 2654435761 + 17 for k in range(230)]


def _kick_key(both_full, start=10**6):
    """The first key whose two candidate buckets are both full, so its
    insert must take the kick path."""
    key = start
    while not both_full(key):
        key += 1
    return key


class TestBlockedCuckooTableCopy:
    def _kick_key(self, t):
        return _kick_key(
            lambda k: t._free_slot(t.index1(k)) is None
            and t._free_slot(t.index2(k)) is None
        )

    def test_copy_equals_rebuild(self):
        t = _build_table(KEYS)
        dup = t.copy()
        assert _table_state(dup) == _table_state(_build_table(KEYS))
        assert len(dup) == len(t) and dup.load_factor == t.load_factor
        assert all(a is not b for a, b in zip(dup._buckets, t._buckets))
        assert dup._rng is not t._rng

    def test_mutating_the_copy_leaves_the_original(self):
        t = _build_table(KEYS)
        before = _table_state(t)
        dup = t.copy()
        kick = self._kick_key(dup)
        assert dup.insert(kick, 1)
        assert dup.delete(KEYS[3])
        assert dup.insert(KEYS[5], 999_999)      # value update in place
        assert dup.lookup(KEYS[5]) == 999_999
        assert _table_state(t) == before
        assert t.lookup(KEYS[5]) == KEYS[5] & 0xFFFF
        assert t.lookup(kick) is None and KEYS[3] in t

    def test_kick_path_evolves_copy_and_rebuild_alike(self):
        dup = _build_table(KEYS).copy()
        ref = _build_table(KEYS)
        kick = self._kick_key(ref)
        assert dup.insert(kick, 7) == ref.insert(kick, 7)
        assert _table_state(dup) == _table_state(ref)
        assert kick in dup


class TestCuckooFilterCopy:
    def _kick_key(self, f):
        def both_full(k):
            fp = f.fingerprint(k)
            i1 = f.index1(k)
            return (f._free_slot(i1) is None
                    and f._free_slot(f.alt_index(i1, fp)) is None)
        return _kick_key(both_full)

    def test_copy_equals_rebuild(self):
        f = _build_filter(KEYS)
        dup = f.copy()
        assert _filter_state(dup) == _filter_state(_build_filter(KEYS))
        assert dup.load_factor == f.load_factor
        assert all(a is not b for a, b in zip(dup._buckets, f._buckets))
        assert dup._rng is not f._rng

    def test_mutating_the_copy_leaves_the_original(self):
        f = _build_filter(KEYS)
        before = _filter_state(f)
        dup = f.copy()
        dup.insert(self._kick_key(dup))
        assert dup.delete(KEYS[3])
        assert _filter_state(dup) != before
        assert _filter_state(f) == before

    @pytest.mark.parametrize("n_kicks", [1, 5])
    def test_kick_path_evolves_copy_and_rebuild_alike(self, n_kicks):
        dup = _build_filter(KEYS).copy()
        ref = _build_filter(KEYS)
        for i in range(n_kicks):
            kick = self._kick_key(ref)
            rng_before = ref._rng.getstate()
            assert dup.insert(kick) == ref.insert(kick)
            assert ref._rng.getstate() != rng_before   # the kick drew
            assert _filter_state(dup) == _filter_state(ref)
