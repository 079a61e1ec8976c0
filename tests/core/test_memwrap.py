"""Memory wrapper tests: proxy ownership, lazy checking, refcounts."""

import pytest

from repro.core.errors import (
    DoubleFreeError,
    InvalidSlotError,
    OwnershipError,
    UseAfterFreeError,
)
from repro.core.memwrap import EAGER, LAZY, MemoryWrapper, NodeProxy
from repro.ebpf.cost_model import ExecMode
from repro.ebpf.runtime import BpfRuntime


@pytest.fixture
def rt():
    return BpfRuntime(mode=ExecMode.ENETSTL, seed=1)


@pytest.fixture
def w(rt):
    return MemoryWrapper(rt)


@pytest.fixture
def proxy():
    return NodeProxy("test")


class TestLifecycle:
    def test_alloc_returns_live_node(self, w):
        node = w.node_alloc(2, 2, 16)
        assert node is not None and node.alive
        assert node.refcount == 1

    def test_release_without_owner_frees(self, w):
        node = w.node_alloc(1, 1, 8)
        w.node_release(node)
        assert not node.alive

    def test_owner_keeps_node_alive(self, w, proxy):
        node = w.node_alloc(1, 1, 8)
        w.set_owner(proxy, node)
        w.node_release(node)
        assert node.alive            # proxy ownership pins it
        w.unset_owner(proxy, node)
        assert not node.alive        # last anchor gone -> freed

    def test_unset_owner_with_live_refs_defers_free(self, w, proxy):
        node = w.node_alloc(1, 1, 8)
        w.set_owner(proxy, node)
        w.unset_owner(proxy, node)   # refcount still 1
        assert node.alive
        w.node_release(node)
        assert not node.alive

    def test_alloc_failure_injection(self, w):
        w.fail_next_alloc()
        assert w.node_alloc(1, 1, 8) is None
        assert w.node_alloc(1, 1, 8) is not None

    def test_double_release_detected(self, w, proxy):
        node = w.node_alloc(1, 1, 8)
        w.set_owner(proxy, node)
        w.node_release(node)
        with pytest.raises(DoubleFreeError):
            w.node_release(node)

    def test_release_of_freed_node_detected(self, w):
        node = w.node_alloc(1, 1, 8)
        w.node_release(node)
        with pytest.raises(UseAfterFreeError):
            w.node_release(node)


class TestOwnership:
    def test_double_adopt_rejected(self, w, proxy):
        node = w.node_alloc(1, 1, 8)
        w.set_owner(proxy, node)
        with pytest.raises(OwnershipError):
            w.set_owner(proxy, node)

    def test_foreign_adopt_rejected(self, w, proxy):
        other = NodeProxy("other")
        node = w.node_alloc(1, 1, 8)
        w.set_owner(proxy, node)
        with pytest.raises(OwnershipError):
            w.set_owner(other, node)

    def test_disown_unowned_rejected(self, w, proxy):
        node = w.node_alloc(1, 1, 8)
        with pytest.raises(OwnershipError):
            w.unset_owner(proxy, node)

    def test_proxy_tracks_owned_set(self, w, proxy):
        nodes = [w.node_alloc(1, 1, 8) for _ in range(5)]
        for n in nodes:
            w.set_owner(proxy, n)
        assert len(proxy) == 5
        assert all(proxy.owns(n) for n in nodes)

    def test_drop_all_frees_everything(self, w, proxy):
        nodes = []
        for _ in range(4):
            n = w.node_alloc(1, 1, 8)
            w.set_owner(proxy, n)
            w.node_release(n)   # program's ref returned; proxy pins
            nodes.append(n)
        assert all(n.alive for n in nodes)
        proxy.drop_all(w)
        assert all(not n.alive for n in nodes)
        assert len(proxy) == 0


class TestRelationships:
    def test_connect_and_traverse(self, w, proxy):
        a = w.node_alloc(1, 1, 8)
        b = w.node_alloc(1, 1, 8)
        for n in (a, b):
            w.set_owner(proxy, n)
        w.node_connect(a, 0, b, 0)
        nxt = w.get_next(a, 0)
        assert nxt is b
        assert b.refcount == 2
        w.node_release(nxt)
        assert b.refcount == 1

    def test_get_next_null_when_unconnected(self, w, proxy):
        a = w.node_alloc(1, 1, 8)
        w.set_owner(proxy, a)
        assert w.get_next(a, 0) is None

    def test_disconnect(self, w, proxy):
        a, b = w.node_alloc(1, 1, 8), w.node_alloc(1, 1, 8)
        for n in (a, b):
            w.set_owner(proxy, n)
        w.node_connect(a, 0, b, 0)
        w.node_disconnect(a, 0)
        assert w.get_next(a, 0) is None
        assert b.in_degree == 0

    def test_reconnect_replaces_edge(self, w, proxy):
        a, b, c = (w.node_alloc(1, 1, 8) for _ in range(3))
        for n in (a, b, c):
            w.set_owner(proxy, n)
        w.node_connect(a, 0, b, 0)
        w.node_connect(a, 0, c, 0)
        assert w.get_next(a, 0) is c
        assert b.in_degree == 0      # the old reverse edge was dropped

    def test_invalid_slot(self, w, proxy):
        a = w.node_alloc(1, 1, 8)
        b = w.node_alloc(1, 1, 8)
        with pytest.raises(InvalidSlotError):
            w.node_connect(a, 3, b, 0)
        with pytest.raises(InvalidSlotError):
            w.get_next(a, 1)


class TestLazySafetyChecking:
    """The paper's §4.2 scenario: free b while a->next == b."""

    def test_freeing_target_nulls_inbound_pointers(self, w, proxy):
        a = w.node_alloc(1, 1, 8)
        b = w.node_alloc(1, 1, 8)
        for n in (a, b):
            w.set_owner(proxy, n)
        w.node_connect(a, 0, b, 0)
        # Free b WITHOUT disconnecting it from a first (the buggy-NF
        # pattern the paper describes).
        w.node_release(b)
        w.unset_owner(proxy, b)
        assert not b.alive
        # Lazy teardown: a->next was nulled, so no use-after-free.
        assert w.get_next(a, 0) is None

    def test_chain_free_middle(self, w, proxy):
        nodes = [w.node_alloc(1, 1, 8) for _ in range(3)]
        for n in nodes:
            w.set_owner(proxy, n)
        a, b, c = nodes
        w.node_connect(a, 0, b, 0)
        w.node_connect(b, 0, c, 0)
        w.node_release(b)
        w.unset_owner(proxy, b)
        assert w.get_next(a, 0) is None
        assert c.in_degree == 0      # b's out-edge reverse entry dropped

    def test_freed_nodes_own_outs_cleared(self, w, proxy):
        a, b = w.node_alloc(1, 1, 8), w.node_alloc(1, 1, 8)
        for n in (a, b):
            w.set_owner(proxy, n)
        w.node_connect(a, 0, b, 0)
        w.node_release(a)
        w.unset_owner(proxy, a)
        assert b.alive and b.in_degree == 0

    def test_eager_mode_charges_more_per_traversal(self, rt):
        lazy_rt = BpfRuntime(mode=ExecMode.ENETSTL, seed=1)
        eager_rt = BpfRuntime(mode=ExecMode.ENETSTL, seed=1)
        for checking, runtime in ((LAZY, lazy_rt), (EAGER, eager_rt)):
            w = MemoryWrapper(runtime, checking=checking)
            proxy = NodeProxy()
            a, b = w.node_alloc(1, 1, 8), w.node_alloc(1, 1, 8)
            w.set_owner(proxy, a)
            w.set_owner(proxy, b)
            w.node_connect(a, 0, b, 0)
            runtime.cycles.reset()
            for _ in range(100):
                nxt = w.get_next(a, 0)
                w.node_release(nxt)
        assert eager_rt.cycles.total > lazy_rt.cycles.total

    def test_invalid_checking_mode(self, rt):
        with pytest.raises(ValueError):
            MemoryWrapper(rt, checking="optimistic")


class TestPayload:
    def test_read_write(self, w):
        node = w.node_alloc(0, 0, 32)
        w.node_write(node, 4, b"hello")
        assert w.node_read(node, 4, 5) == b"hello"

    def test_u64_helpers(self, w):
        node = w.node_alloc(0, 0, 16)
        node.write_u64(0xDEADBEEF, 8)
        assert node.read_u64(8) == 0xDEADBEEF

    def test_out_of_bounds_write(self, w):
        node = w.node_alloc(0, 0, 8)
        with pytest.raises(IndexError):
            w.node_write(node, 4, b"too-long")

    def test_out_of_bounds_read(self, w):
        node = w.node_alloc(0, 0, 8)
        with pytest.raises(IndexError):
            w.node_read(node, 6, 4)

    def test_read_after_free(self, w):
        node = w.node_alloc(0, 0, 8)
        w.node_release(node)
        with pytest.raises(UseAfterFreeError):
            node.read(0, 4)


class TestCosts:
    def test_kernel_traversal_cheaper(self):
        totals = {}
        for mode in (ExecMode.KERNEL, ExecMode.ENETSTL):
            rt = BpfRuntime(mode=mode, seed=1)
            w = MemoryWrapper(rt)
            proxy = NodeProxy()
            a, b = w.node_alloc(1, 1, 8), w.node_alloc(1, 1, 8)
            w.set_owner(proxy, a)
            w.set_owner(proxy, b)
            w.node_connect(a, 0, b, 0)
            rt.cycles.reset()
            for _ in range(50):
                w.node_release(w.get_next(a, 0))
            totals[mode] = rt.cycles.total
        assert totals[ExecMode.KERNEL] < totals[ExecMode.ENETSTL]

    def test_stats_counters(self, w, proxy):
        a, b = w.node_alloc(1, 1, 8), w.node_alloc(1, 1, 8)
        w.set_owner(proxy, a)
        w.set_owner(proxy, b)
        w.node_connect(a, 0, b, 0)
        w.node_release(w.get_next(a, 0))
        assert w.stats.allocs == 2
        assert w.stats.connects == 1
        assert w.stats.traversals == 1
