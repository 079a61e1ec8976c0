"""``datastructs.SkipList`` as the functional oracle for ``nfs.SkipListKV``.

One insert/lookup/delete stream drives both structures; every lookup
and delete answer, the length after every step and the final key order
must agree.  The node heights differ (each draws from its own PRNG), so
only what a caller can observe is compared.

One answer differs by design: ``SkipListKV.insert`` reports success
(True for an update as for a new key; False only when the allocation
fails), while ``SkipList.insert`` reports whether the key was new.  The
test checks the first is True and compares novelty through ``len``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datastructs.skiplist import SkipList
from repro.ebpf.cost_model import ExecMode
from repro.ebpf.runtime import BpfRuntime
from repro.nfs.kv_skiplist import VALUE_SIZE, SkipListKV

#: Small keys collide often; keys at the top of the u64 range check
#: that ordering is unsigned 64-bit.
KEYS = st.one_of(st.integers(0, 40), st.integers(2**64 - 8, 2**64 - 1))

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), KEYS, st.integers(0, 255)),
        st.tuples(st.just("lookup"), KEYS),
        st.tuples(st.just("delete"), KEYS),
    ),
    max_size=120,
)


def _kv_keys(kv):
    """Keys along level 0 of the NF's list, head to tail."""
    keys = []
    node = kv.head.outs[0]
    while node is not None:
        keys.append(node.read_u64(0))
        node = node.outs[0]
    return keys


@pytest.mark.parametrize("mode", [ExecMode.KERNEL, ExecMode.ENETSTL])
@settings(max_examples=100, deadline=None)
@given(ops=OPS, seed=st.integers(0, 2**16))
def test_skiplist_kv_matches_oracle(mode, ops, seed):
    kv = SkipListKV(BpfRuntime(mode=mode, seed=seed))
    oracle = SkipList(seed=seed)
    for op in ops:
        if op[0] == "insert":
            _, key, fill = op
            value = bytes([fill]) * VALUE_SIZE
            assert kv.insert(key, value) is True
            oracle.insert(key, value)
        elif op[0] == "lookup":
            assert kv.lookup(op[1]) == oracle.lookup(op[1])
        else:
            assert kv.delete(op[1]) == oracle.delete(op[1])
        assert len(kv) == len(oracle)
    assert _kv_keys(kv) == [key for key, _ in oracle.items()]
    for key in _kv_keys(kv):
        assert kv.lookup(key) == oracle.lookup(key)
