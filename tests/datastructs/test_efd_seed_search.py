"""EFD's forward seed search and ``EfdTable.copy()``.

A fresh insert resumes a group's seed search from the seed its last
successful insert found; deletes and re-binds restart from 0.  Every
observable result must equal a table that always searches from seed 0:
the same return values, group seeds, members and lookups.
"""

from hypothesis import given, settings, strategies as st

from repro.core.algorithms.hashing import crc_hash32, fast_hash32
from repro.datastructs.efd import EfdTable


class SearchFromZeroEfd:
    """Reference: every insert searches seeds from 0 over all members."""

    def __init__(self, n_groups, n_targets, seed_search_bound):
        self.n_groups = n_groups
        self.n_targets = n_targets
        self.bound = seed_search_bound
        self.seeds = [0] * n_groups
        self.members = [dict() for _ in range(n_groups)]

    def _group(self, key):
        return crc_hash32(key, 5) & (self.n_groups - 1)

    def _value(self, key, seed):
        return fast_hash32(key, 0x1000 + seed) % self.n_targets

    def insert(self, key, target):
        group = self._group(key)
        members = dict(self.members[group])
        members[key] = target
        for seed in range(self.bound):
            if all(self._value(k, seed) == t for k, t in members.items()):
                self.members[group] = members
                self.seeds[group] = seed
                return True
        return False

    def delete(self, key):
        group = self._group(key)
        if key not in self.members[group]:
            return False
        del self.members[group][key]
        return True

    def lookup(self, key):
        return self._value(key, self.seeds[self._group(key)])


KEYS = range(48)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.sampled_from(KEYS), st.integers(0, 3)),
        st.tuples(st.just("delete"), st.sampled_from(KEYS)),
    ),
    max_size=80,
)


def _assert_same(table, ref):
    assert table._group_seed == ref.seeds
    assert table._group_members == ref.members
    assert [table.lookup(k) for k in KEYS] == [ref.lookup(k) for k in KEYS]


def _apply(table, op):
    if op[0] == "insert":
        return table.insert(op[1], op[2])
    return table.delete(op[1])


class TestForwardSearchMatchesSearchFromZero:
    @settings(max_examples=150, deadline=None)
    @given(ops=OPS, n_groups=st.sampled_from([1, 2, 4]),
           bound=st.sampled_from([8, 32, 256]))
    def test_every_step_matches(self, ops, n_groups, bound):
        # Four targets and a small bound: groups of three or more keys
        # often exhaust the search, so failed inserts are common.
        table = EfdTable(n_groups, 4, seed_search_bound=bound)
        ref = SearchFromZeroEfd(n_groups, 4, bound)
        for op in ops:
            assert _apply(table, op) == _apply(ref, op), op
            _assert_same(table, ref)

    def test_scripted_fresh_rebind_delete_and_failure(self):
        table = EfdTable(1, 4, seed_search_bound=64)
        ref = SearchFromZeroEfd(1, 4, 64)
        outcomes = []
        ops = [("insert", k, k % 4) for k in range(8)]      # fills, then fails
        ops += [("insert", 0, 1), ("insert", 1, 1)]         # re-binds
        ops += [("delete", 2), ("delete", 2), ("insert", 9, 0)]
        for op in ops:
            result = _apply(table, op)
            assert result == _apply(ref, op), op
            _assert_same(table, ref)
            outcomes.append(result)
        assert True in outcomes and False in outcomes

    def test_forward_search_finds_the_large_seeds_a_full_fill_needs(self):
        table = EfdTable(1024, 4)
        ref = SearchFromZeroEfd(1024, 4, table.seed_search_bound)
        keys = [k * 2654435761 + 17 for k in range(1500)]
        for k in keys:
            assert table.insert(k, k % 4) == ref.insert(k, k % 4)
        assert table._group_seed == ref.seeds
        assert max(table._group_seed) > 1000


def _state(table):
    return (
        table._group_seed[:],
        [dict(m) for m in table._group_members],
        table._group_floor[:],
    )


class TestCopy:
    def _filled(self):
        table = EfdTable(8, 4)
        for k in range(40):
            table.insert(k * 7919, k % 4)
        return table

    def test_copy_has_the_same_state(self):
        table = self._filled()
        dup = table.copy()
        assert _state(dup) == _state(table)
        assert (dup.n_groups, dup.n_targets, dup.seed_search_bound) == (
            table.n_groups, table.n_targets, table.seed_search_bound)

    def test_mutating_the_copy_leaves_the_original(self):
        table = self._filled()
        before = _state(table)
        dup = table.copy()
        dup.insert(10**9, 2)             # fresh
        dup.insert(7919, 3)              # re-bind
        dup.delete(2 * 7919)
        assert _state(dup) != before
        assert _state(table) == before
        assert _state(table) == _state(self._filled())

    def test_copy_continues_like_the_original(self):
        table = self._filled()
        dup = table.copy()
        for k in range(100, 106):
            assert dup.insert(k, k % 4) == table.insert(k, k % 4)
        assert _state(dup) == _state(table)
