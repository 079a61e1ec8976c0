"""Exact cycle charge of every memory-wrapper kfunc.

Each test performs one kfunc and asserts that the counter moved by
exactly the :class:`CostModel` formula for the runtime's mode and the
wrapper's checking strategy, all of it under the wrapper's category.
The expected values are spelled out from the cost model here, not
taken from the wrapper, so any change to what a kfunc charges fails.
"""

import pytest

from repro.core.memwrap import EAGER, LAZY, MemoryWrapper, NodeProxy
from repro.ebpf.cost_model import DEFAULT_COSTS as C, Category, ExecMode
from repro.ebpf.runtime import BpfRuntime

MODES = (ExecMode.KERNEL, ExecMode.ENETSTL)
CHECKINGS = (LAZY, EAGER)


def _kernel(mode):
    return mode is ExecMode.KERNEL


def _release(mode):
    return C.node_release_kernel if _kernel(mode) else C.node_release


def _disconnect(mode):
    return C.node_disconnect_kernel if _kernel(mode) else C.node_disconnect


def _free(mode):
    return C.kfree if _kernel(mode) else C.bpf_obj_free


def _get_next(mode, checking):
    if _kernel(mode):
        cost = C.get_next_kernel + C.node_read
    else:
        cost = C.get_next_kfunc + C.node_read + C.null_check
    if checking == EAGER:
        cost += C.eager_check
    return cost


def _copy(size):
    return C.kfunc_call + C.mem_copy_per_16b * ((size + 15) // 16)


@pytest.fixture(params=[(m, c) for m in MODES for c in CHECKINGS],
                ids=lambda p: f"{p[0].value}-{p[1]}")
def env(request):
    mode, checking = request.param
    rt = BpfRuntime(mode=mode, seed=1)
    return mode, checking, rt, MemoryWrapper(rt, checking=checking), NodeProxy()


def charged(rt, op):
    """Run ``op``; return (its result, cycles charged, categories hit)."""
    rt.cycles.reset()
    out = op()
    return out, rt.cycles.total, rt.cycles.breakdown()


def _owned(w, proxy, n_outs=2):
    node = w.node_alloc(n_outs, n_outs, 32)
    w.set_owner(proxy, node)
    return node


class TestPerKfuncCharge:
    def test_node_alloc(self, env):
        mode, _, rt, w, _ = env
        node, cyc, by = charged(rt, lambda: w.node_alloc(2, 2, 32))
        assert node is not None
        expect = C.kmalloc if _kernel(mode) else C.node_alloc
        assert (cyc, by) == (expect, {Category.NONCONTIG: expect})

    def test_failed_alloc_still_charged(self, env):
        mode, _, rt, w, _ = env
        w.fail_next_alloc()
        node, cyc, _ = charged(rt, lambda: w.node_alloc(2, 2, 32))
        assert node is None
        assert cyc == (C.kmalloc if _kernel(mode) else C.node_alloc)

    def test_set_and_unset_owner(self, env):
        _, _, rt, w, proxy = env
        node = w.node_alloc(1, 1, 8)
        _, cyc, by = charged(rt, lambda: w.set_owner(proxy, node))
        assert (cyc, by) == (C.kfunc_call, {Category.NONCONTIG: C.kfunc_call})
        # The program still holds its reference: no free, no teardown.
        _, cyc, _ = charged(rt, lambda: w.unset_owner(proxy, node))
        assert cyc == C.kfunc_call and node.alive

    def test_connect(self, env):
        mode, _, rt, w, proxy = env
        a, b = _owned(w, proxy), _owned(w, proxy)
        _, cyc, by = charged(rt, lambda: w.node_connect(a, 0, b, 0))
        expect = C.node_connect_kernel if _kernel(mode) else C.node_connect
        assert (cyc, by) == (expect, {Category.NONCONTIG: expect})

    def test_disconnect(self, env):
        mode, _, rt, w, proxy = env
        a, b = _owned(w, proxy), _owned(w, proxy)
        w.node_connect(a, 0, b, 0)
        _, cyc, by = charged(rt, lambda: w.node_disconnect(a, 0))
        assert (cyc, by) == (_disconnect(mode), {Category.NONCONTIG: _disconnect(mode)})
        # Disconnecting an empty slot costs the same.
        _, cyc, _ = charged(rt, lambda: w.node_disconnect(a, 1))
        assert cyc == _disconnect(mode)

    def test_get_next_hit(self, env):
        mode, checking, rt, w, proxy = env
        a, b = _owned(w, proxy), _owned(w, proxy)
        w.node_connect(a, 0, b, 0)
        nxt, cyc, by = charged(rt, lambda: w.get_next(a, 0))
        assert nxt is b
        expect = _get_next(mode, checking)
        assert (cyc, by) == (expect, {Category.NONCONTIG: expect})

    def test_get_next_null(self, env):
        mode, checking, rt, w, proxy = env
        a = _owned(w, proxy)
        nxt, cyc, by = charged(rt, lambda: w.get_next(a, 1))
        assert nxt is None
        expect = _get_next(mode, checking)
        assert (cyc, by) == (expect, {Category.NONCONTIG: expect})

    def test_release_without_free(self, env):
        mode, _, rt, w, proxy = env
        node = _owned(w, proxy)
        _, cyc, by = charged(rt, lambda: w.node_release(node))
        assert node.alive
        assert (cyc, by) == (_release(mode), {Category.NONCONTIG: _release(mode)})

    def test_release_frees_with_teardown(self, env):
        mode, _, rt, w, proxy = env
        src1, src2, victim, dst = (_owned(w, proxy) for _ in range(4))
        w.node_connect(src1, 0, victim, 0)
        w.node_connect(src2, 1, victim, 1)
        w.node_connect(victim, 0, dst, 0)
        w.unset_owner(proxy, victim)
        _, cyc, by = charged(rt, lambda: w.node_release(victim))
        assert not victim.alive
        # One disconnect per recorded in-edge; out-edges are dropped free.
        expect = _release(mode) + 2 * _disconnect(mode) + _free(mode)
        assert (cyc, by) == (expect, {Category.NONCONTIG: expect})

    def test_unset_owner_frees_with_teardown(self, env):
        mode, _, rt, w, proxy = env
        src, victim = _owned(w, proxy), _owned(w, proxy)
        w.node_connect(src, 0, victim, 0)
        w.node_release(victim)
        _, cyc, _ = charged(rt, lambda: w.unset_owner(proxy, victim))
        assert not victim.alive
        assert cyc == C.kfunc_call + _disconnect(mode) + _free(mode)

    @pytest.mark.parametrize("size", [0, 1, 16, 17, 32])
    def test_read_write(self, env, size):
        _, _, rt, w, proxy = env
        node = _owned(w, proxy)
        _, cyc, by = charged(rt, lambda: w.node_write(node, 0, b"\x01" * size))
        assert (cyc, by) == (_copy(size), {Category.NONCONTIG: _copy(size)})
        data, cyc, _ = charged(rt, lambda: w.node_read(node, 0, size))
        assert data == b"\x01" * size and cyc == _copy(size)


class TestWrapperCategory:
    def test_every_kfunc_charges_the_wrapper_category(self):
        rt = BpfRuntime(mode=ExecMode.ENETSTL, seed=1)
        w = MemoryWrapper(rt, category=Category.OTHER)
        proxy = NodeProxy()
        a, b = _owned(w, proxy), _owned(w, proxy)
        w.node_connect(a, 0, b, 0)
        w.node_release(w.get_next(a, 0))
        w.node_write(a, 0, b"x")
        w.node_read(a, 0, 1)
        w.node_disconnect(a, 0)
        w.unset_owner(proxy, b)
        w.node_release(b)
        assert set(rt.cycles.breakdown()) == {Category.OTHER}
