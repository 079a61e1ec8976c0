"""The batched skip-list walk against the per-call kfunc loop.

:meth:`MemoryWrapper.seek` and :meth:`MemoryWrapper.release_all` are
one Python call per search and per release of the held references.
They must be indistinguishable from the loop of ``get_next`` /
``read_u64`` / ``node_release`` calls the skip list made before: the
same cycles in the same categories, the same wrapper stats, the same
refcounts, the same structure and the same runtime RNG stream, on the
happy path and when a guard raises.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import DoubleFreeError, InvalidSlotError, UseAfterFreeError
from repro.core.memwrap import EAGER, LAZY, MemoryWrapper, Node
from repro.ebpf.cost_model import ExecMode
from repro.ebpf.runtime import BpfRuntime
from repro.net.flowgen import FlowGenerator
from repro.nfs.cuckoo_switch import CuckooSwitchNF
from repro.nfs.kv_skiplist import SkipListKV

MODES = (ExecMode.KERNEL, ExecMode.ENETSTL)
CHECKINGS = (LAZY, EAGER)
CONFIGS = [(m, c) for m in MODES for c in CHECKINGS]


class _Recording(MemoryWrapper):
    """The wrapper under test, remembering every node it allocates."""

    def __init__(self, rt, checking):
        super().__init__(rt, checking=checking)
        self.allocated = []

    def node_alloc(self, n_outs, n_ins, data_size=0):
        node = super().node_alloc(n_outs, n_ins, data_size)
        if node is not None:
            self.allocated.append(node)
        return node


class _PerCall(_Recording):
    """The reference: the skip list's search and release as the per-call
    kfunc loops they were before the batched forms existed."""

    def seek(self, node, top, key, preds, held):
        for level in range(top, -1, -1):
            nxt = self.get_next(node, level)
            while nxt is not None:
                held.append(nxt)
                if nxt.read_u64(0) >= key:
                    break
                node = nxt
                nxt = self.get_next(node, level)
            preds[level] = node

    def release_all(self, nodes):
        for node in nodes:
            self.node_release(node)


def _pair(mode, checking, seed=7):
    """Two identically seeded skip lists: batched and per-call."""
    lists = []
    for wrapper in (_Recording, _PerCall):
        kv = SkipListKV(BpfRuntime(mode=mode, seed=seed), checking=checking)
        kv.wrapper = wrapper(kv.rt, checking)
        lists.append(kv)
    return lists


def _state(kv):
    """Everything observable about one skip list and its runtime."""
    w = kv.wrapper
    levels = []
    for level in range(kv.max_height):
        keys, node = [], kv.head.outs[level]
        while node is not None:
            keys.append(bytes(node.data[:8]))
            node = node.outs[level]
        levels.append(keys)
    return {
        "total": kv.rt.cycles.total,
        "by_category": kv.rt.cycles.breakdown(),
        "stats": (w.stats.allocs, w.stats.frees, w.stats.connects,
                  w.stats.traversals),
        "levels": levels,
        "height": kv.height,
        "len": len(kv),
        "nodes": [(n.refcount, n.alive, n.in_degree, n.owner is None)
                  for n in w.allocated],
        "rng": kv.rt._prng.getstate(),
    }


def _apply(kv, op, key):
    try:
        if op == "lookup":
            return kv.lookup(key)
        if op == "insert":
            return kv.insert(key, key.to_bytes(8, "little"))
        return kv.delete(key)
    except Exception as exc:  # compared like a return value
        return type(exc)


ops = st.lists(
    st.tuples(st.sampled_from(["lookup", "insert", "delete"]),
              st.integers(0, 40)),
    max_size=60,
)


@pytest.mark.parametrize("mode, checking", CONFIGS)
@settings(max_examples=40, deadline=None)
@given(ops=ops)
def test_random_ops_match_per_call_reference(mode, checking, ops):
    fast, ref = _pair(mode, checking)
    for op, key in ops:
        assert _apply(fast, op, key) == _apply(ref, op, key)
        assert _state(fast) == _state(ref)


def _populated(mode, checking, keys=range(0, 64, 2)):
    pair = _pair(mode, checking)
    for kv in pair:
        kv.preload(keys)
    assert _state(pair[0]) == _state(pair[1])
    return pair


def _splice(kv, after_key, node):
    """Link ``node`` behind ``after_key`` on level 0, under the wrapper
    (a corrupted structure no kfunc sequence can build)."""
    x = kv.head.outs[0]
    while x.read_u64(0) != after_key:
        x = x.outs[0]
    node.outs[0] = x.outs[0]
    x.outs[0] = node


def _raises_alike(pair, call, error):
    for kv in pair:
        with pytest.raises(error):
            call(kv)
    fast, ref = pair
    assert _state(fast) == _state(ref)


@pytest.mark.parametrize("mode, checking", CONFIGS)
def test_freed_node_in_chain_raises_use_after_free(mode, checking):
    pair = _populated(mode, checking)
    for kv in pair:
        dead = Node(1, 1, 16)
        dead.write_u64(21)
        dead.free_now()
        _splice(kv, 20, dead)
    _raises_alike(pair, lambda kv: kv.lookup(21), UseAfterFreeError)


@pytest.mark.parametrize("mode, checking", CONFIGS)
def test_short_payload_raises_index_error(mode, checking):
    pair = _populated(mode, checking)
    for kv in pair:
        _splice(kv, 30, Node(1, 1, 4))
    _raises_alike(pair, lambda kv: kv.lookup(31), IndexError)


@pytest.mark.parametrize("mode, checking", CONFIGS)
def test_out_of_range_level_raises_invalid_slot(mode, checking):
    pair = _populated(mode, checking)

    def seek_past_top(kv):
        preds = [kv.head] * (kv.max_height + 1)
        kv.wrapper.seek(kv.head, kv.max_height, 9, preds, [])

    _raises_alike(pair, seek_past_top, InvalidSlotError)


@pytest.mark.parametrize("mode, checking", CONFIGS)
def test_double_release_raises_double_free(mode, checking):
    pair = _populated(mode, checking)

    def release_twice(kv):
        preds, held = [kv.head] * kv.max_height, []
        kv.wrapper.seek(kv.head, kv.height - 1, 33, preds, held)
        kv.wrapper.release_all(held + held[-1:])

    _raises_alike(pair, release_twice, DoubleFreeError)


def test_release_all_frees_a_disowned_node_on_its_last_reference():
    fast, ref = _populated(ExecMode.ENETSTL, LAZY)
    for kv in (fast, ref):
        assert kv.delete(20)
    assert _state(fast) == _state(ref)
    freed = [n for n in fast.wrapper.allocated if not n.alive]
    assert len(freed) == 1 and freed[0].refcount == 0


#: ``BlockedCuckooTable`` layout after the Fig. 3(c) populate at
#: alpha = 0.95, recorded before inserts hashed each key once.
CUCKOO_095_GOLDEN = (15543, "f334cc7d77ab981b8c863b5b")


def test_fig3c_populate_layout_is_pinned():
    n_buckets, slots = 2048, 8
    capacity = n_buckets * slots
    flows = FlowGenerator(n_flows=capacity, seed=5).flows[: int(0.95 * capacity)]
    nf = CuckooSwitchNF(BpfRuntime(mode=ExecMode.ENETSTL, seed=5),
                        n_buckets=n_buckets, slots_per_bucket=slots)
    placed = nf.populate(f.key_int for f in flows)
    layout = [[None if e is None else (e.sig, e.key, e.value) for e in b]
              for b in nf.table._buckets]
    digest = hashlib.sha256(json.dumps(layout).encode()).hexdigest()[:24]
    assert (placed, digest) == CUCKOO_095_GOLDEN
    assert all(nf.table.lookup(f.key_int) == f.key_int & 0xFFFF
               for f in flows[:500] if f.key_int in nf.table)
