"""``BlockedCuckooTable`` against a dict model and a cold insert.

``lookup`` probes bucket 2 only after bucket 1 misses and leaves a
miss's hashes for the ``insert`` of the same key.  Whatever the order
of lookups, inserts, deletes and copies, the table must answer like a
dict and lay its entries out exactly as an insert that hashes the key
afresh and places it with ``probe_bucket`` and ``_free_slot`` would.
"""

from hypothesis import given, settings, strategies as st

from repro.datastructs.cuckoo import BlockedCuckooTable, _Entry


def _layout(t):
    return [
        [None if e is None else (e.sig, e.key, e.value) for e in bucket]
        for bucket in t._buckets
    ]


def cold_insert(t, key, value):
    """Insert-or-update from the table's building blocks, every hash
    computed from the key."""
    i1, i2 = t.index1(key), t.index2(key)
    sig = t.signature(key)
    entry = _Entry(sig, key, value, i1, i2)
    for index in (i1, i2):
        hit = t.probe_bucket(index, key, sig)
        if hit is not None:
            t._buckets[index][hit[0]] = entry
            return True
    for index in (i1, i2):
        slot = t._free_slot(index)
        if slot is not None:
            t._buckets[index][slot] = entry
            t._len += 1
            return True
    return t._insert_with_path(entry, (i1, i2))


def cold_lookup(t, key):
    for index in (t.index1(key), t.index2(key)):
        hit = t.probe_bucket(index, key)
        if hit is not None:
            return hit[1]
    return None


#: Few keys, so lookups hit, updates happen and small tables fill up.
keys = st.integers(min_value=0, max_value=40)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), keys, st.integers(0, 99)),
        st.tuples(st.just("lookup"), keys),
        st.tuples(st.just("delete"), keys),
        st.tuples(st.just("copy")),
        # A lookup miss, then an insert of the same or of another key.
        st.tuples(st.just("miss_insert"), keys, keys, st.integers(0, 99)),
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(
    n_buckets=st.sampled_from([1, 2, 4, 8]),
    slots=st.integers(min_value=1, max_value=4),
    ops=ops,
)
def test_table_matches_dict_model_and_cold_insert_layout(n_buckets, slots, ops):
    table = BlockedCuckooTable(n_buckets, slots)
    cold = BlockedCuckooTable(n_buckets, slots)
    model = {}
    copies = []  # (original table, its layout when copied)

    def insert(key, value):
        placed = table.insert(key, value)
        assert placed == cold_insert(cold, key, value)
        if placed:
            model[key] = value

    for op in ops:
        if op[0] == "insert":
            insert(op[1], op[2])
        elif op[0] == "lookup":
            assert table.lookup(op[1]) == model.get(op[1])
        elif op[0] == "delete":
            deleted = table.delete(op[1])
            assert deleted == cold.delete(op[1]) == (op[1] in model)
            model.pop(op[1], None)
        elif op[0] == "copy":
            copies.append((table, _layout(table)))
            table, cold = table.copy(), cold.copy()
        else:
            _, missed, key, value = op
            assert table.lookup(missed) == model.get(missed)
            insert(key, value)
        assert _layout(table) == _layout(cold)
        assert len(table) == len(cold) == len(model)
    for key in range(41):
        assert table.lookup(key) == model.get(key) == cold_lookup(cold, key)
    # Mutating a copy never reached the table it was copied from.
    for original, layout in copies:
        assert _layout(original) == layout


def test_insert_after_a_miss_reuses_the_hashes_of_that_key_only():
    t = BlockedCuckooTable(64, 4)
    assert t.lookup(7) is None
    assert t._missed == (7, t.index1(7), t.index2(7), t.signature(7))
    assert t.insert(8, 1)          # another key: hashed afresh
    assert t.lookup(8) == 1 and t.lookup(7) is None
    assert t.insert(7, 2)
    assert t.lookup(7) == 2
    assert t.probe_bucket(t.index1(7), 7) or t.probe_bucket(t.index2(7), 7)
