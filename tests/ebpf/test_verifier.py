"""Verifier tests: the kfunc/kptr safety rules of §4.1 and §4.4.

Each test builds a small IR program and asserts the verifier's verdict.
Rejection tests check the error message names the right violation.
The pruning-budget tests at the end pin what subsumption pruning buys
and that a pruned proof table still compiles to a bit-identical run.
"""

import time

import pytest

from repro.ebpf.insn import (
    Alu,
    Call,
    Exit,
    Imm,
    Jmp,
    JmpIf,
    Load,
    Mov,
    Program,
    Store,
    R0,
    R1,
    R2,
    R3,
    R6,
    R7,
    R10,
)
from repro.ebpf.kfunc_meta import (
    ARG_CONST,
    ARG_SCALAR,
    default_registry,
)
from repro.ebpf.progs import runnable_registry
from repro.ebpf.runtime import BpfRuntime
from repro.ebpf.verifier import Verifier, VerifierError
from repro.ebpf.vm import Vm
from repro.net.irnf import IrChainNf, encode_packet
from repro.net.packet import Packet


@pytest.fixture
def registry():
    return default_registry()


@pytest.fixture
def verifier(registry):
    return Verifier(registry)


def verify(verifier, *insns, name="t"):
    return verifier.verify(Program(list(insns), name=name))


def reject(verifier, *insns, match):
    with pytest.raises(VerifierError, match=match):
        verify(verifier, *insns)


class TestBasics:
    def test_trivial_program(self, verifier):
        verify(verifier, Mov(R0, Imm(0)), Exit())

    def test_arithmetic(self, verifier):
        verify(
            verifier,
            Mov(R0, Imm(6)),
            Alu("mul", R0, Imm(7)),
            Alu("add", R0, Imm(1)),
            Exit(),
        )

    def test_exit_requires_scalar_r0(self, verifier):
        reject(verifier, Mov(R0, Imm(0)), Mov(R2, R10), Mov(R0, R2), Exit(),
               match="scalar return")

    def test_exit_with_uninit_r0_rejected(self, verifier):
        # r0 starts NOT_INIT; returning it directly is invalid.
        reject(verifier, Exit(), match="scalar return")

    def test_uninitialized_register_read(self, verifier):
        reject(verifier, Mov(R0, R7), Exit(), match="uninitialized register")

    def test_fallthrough_off_end(self, verifier):
        reject(verifier, Mov(R0, Imm(0)), match="fell off the end")


class TestTermination:
    def test_back_edge_rejected(self, verifier):
        reject(
            verifier,
            Mov(R0, Imm(0)),
            Jmp(0),
            Exit(),
            match="back-edge",
        )

    def test_conditional_back_edge_rejected(self, verifier):
        reject(
            verifier,
            Mov(R0, Imm(0)),
            JmpIf("ne", R0, Imm(5), 1),
            Exit(),
            match="back-edge",
        )

    def test_forward_jump_ok(self, verifier):
        verify(
            verifier,
            Mov(R0, Imm(0)),
            Jmp(3),
            Mov(R0, Imm(1)),   # skipped
            Exit(),
        )

    def test_division_by_zero_immediate(self, verifier):
        reject(verifier, Mov(R0, Imm(1)), Alu("div", R0, Imm(0)), Exit(),
               match="division by zero")

    def test_division_by_unknown_scalar(self, verifier, registry):
        reject(
            verifier,
            Call("bpf_get_prandom_u32"),
            Mov(R6, R0),
            Mov(R0, Imm(8)),
            Alu("div", R0, R6),
            Exit(),
            match="division by zero",
        )

    def test_division_by_known_nonzero_ok(self, verifier):
        verify(verifier, Mov(R0, Imm(8)), Alu("div", R0, Imm(2)), Exit())

    def test_modulo_by_zero(self, verifier):
        reject(verifier, Mov(R0, Imm(1)), Alu("mod", R0, Imm(0)), Exit(),
               match="division by zero|modulo")

    def test_oversized_shift_rejected(self, verifier):
        reject(verifier, Mov(R0, Imm(1)), Alu("lsh", R0, Imm(64)), Exit(),
               match="shift amount")


class TestStackSafety:
    def test_store_then_load(self, verifier):
        verify(
            verifier,
            Mov(R2, R10),
            Store(R2, -8, Imm(42)),
            Load(R0, R2, -8),
            Exit(),
        )

    def test_read_uninitialized_stack(self, verifier):
        reject(verifier, Load(R0, R10, -8), Exit(),
               match="uninitialized stack")

    def test_out_of_bounds_below(self, verifier):
        reject(verifier, Store(R10, -520, Imm(1)), Mov(R0, Imm(0)), Exit(),
               match="out of bounds")

    def test_out_of_bounds_above(self, verifier):
        reject(verifier, Store(R10, 0, Imm(1)), Mov(R0, Imm(0)), Exit(),
               match="out of bounds")

    def test_misaligned_access(self, verifier):
        reject(verifier, Store(R10, -9, Imm(1)), Mov(R0, Imm(0)), Exit(),
               match="misaligned")

    def test_pointer_arithmetic_tracks_offset(self, verifier):
        verify(
            verifier,
            Mov(R2, R10),
            Alu("sub", R2, Imm(16)),
            Store(R2, 0, Imm(1)),    # fp-16: fine
            Load(R0, R2, 0),
            Exit(),
        )

    def test_pointer_arithmetic_with_unknown_scalar(self, verifier):
        reject(
            verifier,
            Call("bpf_get_prandom_u32"),
            Mov(R2, R10),
            Alu("add", R2, R0),
            Mov(R0, Imm(0)),
            Exit(),
            match="unknown scalar",
        )

    def test_pointer_multiplication_rejected(self, verifier):
        reject(verifier, Mov(R2, R10), Alu("mul", R2, Imm(2)),
               Mov(R0, Imm(0)), Exit(), match="invalid mul on pointer")

    def test_spilled_pointer_restored(self, verifier):
        verify(
            verifier,
            Mov(R2, R10),
            Store(R10, -8, R2),       # spill
            Load(R3, R10, -8),        # fill
            Store(R3, -16, Imm(7)),   # use as stack pointer again
            Mov(R0, Imm(0)),
            Exit(),
        )


class TestNullChecks:
    """KF_RET_NULL: the verifier forces a NULL check before use."""

    def test_deref_without_null_check_rejected(self, verifier):
        reject(
            verifier,
            Mov(R1, Imm(1)),
            Mov(R2, R10),
            Call("bpf_map_lookup_elem"),
            Load(R0, R0, 0),
            Exit(),
            match="NULL",
        )

    def test_deref_after_ne_check_ok(self, verifier):
        verify(
            verifier,
            Mov(R1, Imm(1)),
            Mov(R2, R10),
            Call("bpf_map_lookup_elem"),
            JmpIf("ne", R0, Imm(0), 6),
            Mov(R0, Imm(0)),
            Exit(),
            Load(R0, R0, 0),   # checked branch: deref fine
            Exit(),
        )

    def test_deref_after_eq_check_ok(self, verifier):
        verify(
            verifier,
            Mov(R1, Imm(1)),
            Mov(R2, R10),
            Call("bpf_map_lookup_elem"),
            JmpIf("eq", R0, Imm(0), 6),
            Load(R0, R0, 0),   # fallthrough is the non-null branch
            Exit(),
            Mov(R0, Imm(0)),
            Exit(),
        )

    def test_null_branch_deref_rejected(self, verifier):
        reject(
            verifier,
            Mov(R1, Imm(1)),
            Mov(R2, R10),
            Call("bpf_map_lookup_elem"),
            JmpIf("ne", R0, Imm(0), 5),
            Load(R0, R0, 0),   # NULL branch: r0 is scalar 0 here
            Exit(),
            Mov(R0, Imm(0)),
            Exit(),
            match="non-pointer",
        )

    def test_pointer_compared_to_nonzero_rejected(self, verifier):
        reject(
            verifier,
            Mov(R1, Imm(1)),
            Mov(R2, R10),
            Call("bpf_map_lookup_elem"),
            JmpIf("ne", R0, Imm(7), 5),
            Mov(R0, Imm(0)),
            Exit(),
            Mov(R0, Imm(0)),
            Exit(),
            match="pointer comparison",
        )

    def test_kernel_memory_out_of_bounds(self, verifier):
        reject(
            verifier,
            Mov(R1, Imm(1)),
            Mov(R2, R10),
            Call("bpf_map_lookup_elem"),
            JmpIf("eq", R0, Imm(0), 6),
            Load(R0, R0, 4096),   # way past the region
            Exit(),
            Mov(R0, Imm(0)),
            Exit(),
            match="out of bounds",
        )


class TestAcquireRelease:
    """KF_ACQUIRE/KF_RELEASE pairing: leaks and double frees."""

    def _alloc(self):
        # bpf_obj_new(const size) -> acquired maybe-null kptr
        return [Mov(R1, Imm(64)), Call("bpf_obj_new")]

    def test_leak_rejected(self, verifier):
        reject(
            verifier,
            *self._alloc(),
            JmpIf("eq", R0, Imm(0), 3),
            Mov(R0, Imm(0)),   # non-null branch: leaks the object
            Exit(),
            Mov(R0, Imm(0)),
            Exit(),
            match="unreleased reference",
        )

    def test_alloc_then_release_ok(self, verifier):
        verify(
            verifier,
            *self._alloc(),
            JmpIf("eq", R0, Imm(0), 6),
            Mov(R1, R0),
            Call("bpf_obj_drop"),
            Mov(R0, Imm(0)),
            Exit(),
            Mov(R0, Imm(0)),
            Exit(),
        )

    def test_release_without_acquire_rejected(self, verifier):
        reject(
            verifier,
            Mov(R1, Imm(1)),
            Mov(R2, R10),
            Call("bpf_map_lookup_elem"),   # kptr but NOT acquired
            JmpIf("eq", R0, Imm(0), 7),
            Mov(R1, R0),
            Call("bpf_obj_drop"),
            Mov(R0, Imm(0)),
            Exit(),
            Mov(R0, Imm(0)),
            Exit(),
            match="not acquired|double free",
        )

    def test_double_release_rejected(self, verifier):
        reject(
            verifier,
            *self._alloc(),
            JmpIf("eq", R0, Imm(0), 9),
            Mov(R6, R0),
            Mov(R1, R6),
            Call("bpf_obj_drop"),
            Mov(R1, R6),            # r6 was invalidated by the release
            Call("bpf_obj_drop"),
            Mov(R0, Imm(0)),
            Exit(),
            Mov(R0, Imm(0)),
            Exit(),
            match="uninitialized",
        )

    def test_use_after_release_rejected(self, verifier):
        reject(
            verifier,
            *self._alloc(),
            JmpIf("eq", R0, Imm(0), 8),
            Mov(R6, R0),
            Mov(R1, R6),
            Call("bpf_obj_drop"),
            Load(R0, R6, 0),    # use after free: r6 invalidated
            Exit(),
            Mov(R0, Imm(0)),
            Exit(),
            match="uninitialized",
        )

    def test_release_of_maybe_null_rejected(self, verifier):
        reject(
            verifier,
            *self._alloc(),
            Mov(R1, R0),          # no null check first
            Call("bpf_obj_drop"),
            Mov(R0, Imm(0)),
            Exit(),
            match="may be NULL",
        )

    def test_null_branch_has_no_leak(self, verifier):
        """An allocation that returned NULL never materialized."""
        verify(
            verifier,
            *self._alloc(),
            JmpIf("ne", R0, Imm(0), 5),
            Mov(R0, Imm(0)),
            Exit(),
            Mov(R1, R0),
            Call("bpf_obj_drop"),
            Mov(R0, Imm(0)),
            Exit(),
        )


class TestKptrXchg:
    """The third kptr rule: persisting via bpf_kptr_xchg ends the
    program's ownership; the returned (old) pointer is a fresh
    acquired, maybe-null kptr."""

    def _xchg_prog_prefix(self):
        return [
            Mov(R1, Imm(64)),
            Call("bpf_obj_new"),           # acquired, maybe-null
            JmpIf("eq", R0, Imm(0), 99),   # placeholder target, fixed below
        ]

    def test_persist_then_handle_old_pointer(self, verifier):
        verify(
            verifier,
            Mov(R1, Imm(64)),
            Call("bpf_obj_new"),
            JmpIf("eq", R0, Imm(0), 12),
            Mov(R2, R0),                  # the new object
            Mov(R1, R10),                 # map-value slot (modeled)
            Call("bpf_kptr_xchg"),        # releases r2's ref, acquires old
            JmpIf("eq", R0, Imm(0), 10),
            Mov(R1, R0),
            Call("bpf_obj_drop"),         # release the old pointer
            Jmp(10),
            Mov(R0, Imm(0)),
            Exit(),
            Mov(R0, Imm(0)),
            Exit(),
        )

    def test_ignoring_old_pointer_is_a_leak(self, verifier):
        reject(
            verifier,
            Mov(R1, Imm(64)),
            Call("bpf_obj_new"),
            JmpIf("eq", R0, Imm(0), 8),
            Mov(R2, R0),
            Mov(R1, R10),
            Call("bpf_kptr_xchg"),
            Mov(R0, Imm(0)),              # old pointer dropped on floor
            Exit(),
            Mov(R0, Imm(0)),
            Exit(),
            match="unreleased reference",
        )

    def test_xchg_consumes_new_pointer(self, verifier):
        """After the xchg, the persisted pointer is invalidated."""
        reject(
            verifier,
            Mov(R1, Imm(64)),
            Call("bpf_obj_new"),
            JmpIf("eq", R0, Imm(0), 12),
            Mov(R6, R0),
            Mov(R2, R6),
            Mov(R1, R10),
            Call("bpf_kptr_xchg"),
            JmpIf("eq", R0, Imm(0), 10),
            Mov(R1, R0),
            Call("bpf_obj_drop"),
            Load(R0, R6, 0),              # r6 was invalidated by the xchg
            Exit(),
            Mov(R0, Imm(0)),
            Exit(),
            match="uninitialized",
        )


class TestCallValidation:
    def test_unknown_kfunc(self, verifier):
        reject(verifier, Call("not_a_kfunc"), Exit(), match="unknown kfunc")

    def test_arg_type_scalar_required(self, verifier, registry):
        registry.define("wants_scalar", args=(ARG_SCALAR,))
        reject(
            verifier,
            Mov(R1, R10),
            Call("wants_scalar"),
            Exit(),
            match="must be a scalar",
        )

    def test_arg_type_const_required(self, verifier, registry):
        registry.define("wants_const", args=(ARG_CONST,))
        reject(
            verifier,
            Call("bpf_get_prandom_u32"),
            Mov(R1, R0),
            Call("wants_const"),
            Exit(),
            match="known constant",
        )

    def test_const_arg_satisfied_by_imm(self, verifier, registry):
        registry.define("wants_const2", args=(ARG_CONST,))
        verify(
            verifier,
            Mov(R1, Imm(16)),
            Call("wants_const2"),
            Mov(R0, Imm(0)),
            Exit(),
        )

    def test_arg_uninitialized(self, verifier, registry):
        registry.define("wants_two", args=(ARG_SCALAR, ARG_SCALAR))
        reject(
            verifier,
            Mov(R1, Imm(1)),
            Call("wants_two"),
            Exit(),
            match="uninitialized",
        )

    def test_caller_saved_clobbered(self, verifier):
        reject(
            verifier,
            Mov(R2, Imm(5)),
            Call("bpf_get_prandom_u32"),
            Mov(R0, R2),   # r2 clobbered by the call
            Exit(),
            match="uninitialized",
        )

    def test_callee_saved_survive(self, verifier):
        verify(
            verifier,
            Mov(R6, Imm(5)),
            Call("bpf_get_prandom_u32"),
            Mov(R0, R6),
            Exit(),
        )

    def test_prog_type_restriction(self, registry):
        registry.define("xdp_only", prog_types=("xdp",))
        ok = Verifier(registry, prog_type="xdp")
        verify(ok, Call("xdp_only"), Exit())
        bad = Verifier(registry, prog_type="kprobe")
        reject(bad, Call("xdp_only"), Exit(), match="not allowed")

    def test_pointer_store_into_kernel_memory_rejected(self, verifier):
        reject(
            verifier,
            Mov(R1, Imm(1)),
            Mov(R2, R10),
            Call("bpf_map_lookup_elem"),
            JmpIf("eq", R0, Imm(0), 6),
            Store(R0, 0, R10),    # storing a pointer into map memory
            Exit(),
            Mov(R0, Imm(0)),
            Exit(),
            match="cannot store a pointer",
        )


class TestSpilledReferences:
    """Acquired kptrs spilled to the stack stay tracked."""

    def test_release_via_reloaded_spill(self, verifier):
        verify(
            verifier,
            Mov(R1, Imm(64)),
            Call("bpf_obj_new"),
            JmpIf("eq", R0, Imm(0), 9),
            Store(R10, -8, R0),       # spill the acquired pointer
            Call("bpf_get_prandom_u32"),
            Load(R1, R10, -8),        # fill
            Call("bpf_obj_drop"),     # release through the reloaded reg
            Mov(R0, Imm(0)),
            Exit(),
            Mov(R0, Imm(0)),
            Exit(),
        )

    def test_spilled_leak_still_detected(self, verifier):
        reject(
            verifier,
            Mov(R1, Imm(64)),
            Call("bpf_obj_new"),
            JmpIf("eq", R0, Imm(0), 5),
            Store(R10, -8, R0),       # spill, then forget about it
            Jmp(5),
            Mov(R0, Imm(0)),
            Exit(),
            match="unreleased reference",
        )

    def test_spilled_copy_invalidated_after_release(self, verifier):
        reject(
            verifier,
            Mov(R1, Imm(64)),
            Call("bpf_obj_new"),
            JmpIf("eq", R0, Imm(0), 10),
            Store(R10, -8, R0),       # spill a copy
            Mov(R1, R0),
            Call("bpf_obj_drop"),     # release via the register
            Load(R1, R10, -8),        # the spilled copy is dead now
            Call("bpf_obj_drop"),
            Mov(R0, Imm(0)),
            Exit(),
            Mov(R0, Imm(0)),
            Exit(),
            match="uninitialized",
        )


class TestStatePruning:
    def test_diamond_cfg_converges(self, verifier):
        """Equal states after a branch merge are pruned, not re-explored."""
        stats = verify(
            verifier,
            Mov(R0, Imm(0)),
            Call("bpf_get_prandom_u32"),
            JmpIf("eq", R0, Imm(0), 4),
            Mov(R6, Imm(1)),
            Mov(R0, Imm(0)),
            Exit(),
        )
        assert stats.states_explored < 32


# -- subsumption pruning budget ----------------------------------------------


def _eq_dispatch_prog(k: int, tail_pad: int) -> Program:
    """Switch-style eq-chain whose arms share a long tail: the pruned
    verifier visits the tail once (general state) and subsumes every
    refined arm; the unpruned verifier re-walks it per arm."""
    insns = [
        Call("bpf_get_prandom_u32"),
        Mov(R6, R0),
        Alu("and", R6, Imm(0xFF)),
    ]
    tail = 3 + k
    for i in range(k):
        insns.append(JmpIf("eq", R6, Imm(i + 1), tail))
    insns += [Mov(R0, R6)]
    insns += [Alu("add", R0, Imm(1)) for _ in range(tail_pad)]
    insns += [Alu("and", R0, Imm(3)), Exit()]
    return Program(insns, name=f"eq_dispatch_{k}_{tail_pad}")


def test_pruning_verifies_within_budget_unpruned_exceeds():
    """The acceptance demo: under the same ``max_states`` budget, the
    pruned verifier accepts the dispatch-heavy program that the
    unpruned verifier rejects as too complex."""
    prog = _eq_dispatch_prog(12, 24)
    reg = runnable_registry(0)
    budget = 128

    vp = Verifier(reg, max_states=budget).verify(prog)
    assert vp.stats.states_pruned >= 12
    assert vp.stats.states_explored <= budget

    with pytest.raises(VerifierError, match="state limit"):
        Verifier(reg, prune=False, max_states=budget).verify(prog)
    # Without the budget the unpruned verifier accepts — and needs
    # several times more states, which is exactly what pruning saves.
    vp_u = Verifier(reg, prune=False).verify(prog)
    assert vp_u.stats.states_explored > 2 * (
        vp.stats.states_explored + vp.stats.states_pruned
    )


def test_pruning_ladder_keeps_proofs_and_saves_states():
    """As the dispatch grows, pruning keeps the proof table identical,
    always explores fewer states, and at the largest size also
    verifies faster (best of three runs each)."""
    reg = runnable_registry(0)

    def best(make_verifier, prog):
        best_s = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            vp = make_verifier().verify(prog)
            best_s = min(best_s, time.perf_counter() - t0)
        return best_s, vp

    for k, pad in ((8, 16), (12, 24), (16, 32)):
        prog = _eq_dispatch_prog(k, pad)
        pruned_s, vp = best(lambda: Verifier(reg), prog)
        unpruned_s, vu = best(lambda: Verifier(reg, prune=False), prog)
        assert vp.annotations.safe_mem == vu.annotations.safe_mem
        assert vp.annotations.safe_div == vu.annotations.safe_div
        assert vp.stats.states_explored < vu.stats.states_explored, k
    assert pruned_s < unpruned_s


def test_pruned_program_runs_with_fused_parity():
    """The pruned proof table still drives a correct compile: the
    one-stage fused program matches the interpreter on r0, stack bytes
    and every ``VmStats`` field."""
    prog = _eq_dispatch_prog(8, 8)
    vp = Verifier(runnable_registry(0), max_states=128).verify(prog)
    pkt = Packet(src_ip=1, dst_ip=2, src_port=3, dst_port=4)
    for seed in (1, 2):
        vm = Vm(runnable_registry(seed), packet=encode_packet(pkt), proofs=vp)
        r0 = vm.run(prog)
        nf = IrChainNf(BpfRuntime(), [vp], registry=runnable_registry(seed),
                       backend="fused")
        nf.process(pkt)
        assert nf.returns == [r0]
        assert bytes(nf._vm.stack) == bytes(vm.stack)
        assert nf.stats == vm.stats
