"""Differential fuzz: the verifier's soundness and elision contracts.

A seeded generator emits programs biased toward the verifier's accept
frontier (guarded packet reads, counted loops, masked divisors, stack
tables, kptr lifecycles) plus mutated and junk variants that land on
the reject side.  For every *accepted* program, on several random
packets:

1. **Soundness** — the VM, with every runtime check still performed,
   never raises :class:`VmFault`.
2. **Elision transparency** — the same program with proven checks
   elided produces a bit-identical machine state: same r0, same final
   stack bytes, same packet bytes, same step count.
3. **Compiled transparency** — the same program compiled as a
   one-stage fused chain (``IrChainNf([vp], backend="fused")``) on a
   :class:`~repro.net.packet.Packet` frame produces the elided
   interpreter's r0 and final stack bytes *and* bit-identical
   accounting: steps, checks performed / elided, instruction cycles,
   check cycles.  Frames come from their own seeded stream, so the
   corpus does not depend on them; a separate program family with
   ``data_end`` guards reaching past the frame keeps the compiled
   guard-fail path covered.
4. **Pruning transparency** — verifying with subsumption pruning
   disabled never changes an accept/reject verdict or the proof
   annotations that drive elision and unrolling.

The sweep size is ``REPRO_FUZZ_PROGRAMS`` (default 400 for tier-1; CI
runs the ``fuzz-sweep`` job at 2000+).  Everything derives from one
seed, so failures replay exactly.
"""

import os
import random

import pytest

from repro.ebpf.insn import (
    Alu,
    Call,
    Exit,
    Imm,
    JmpIf,
    Load,
    Mov,
    Program,
    Store,
    R0,
    R1,
    R2,
    R3,
    R4,
    R5,
    R6,
    R7,
    R8,
    R9,
    R10,
)
from repro.ebpf.fuse import fuse_chain
from repro.ebpf.progs import runnable_registry
from repro.ebpf.runtime import BpfRuntime
from repro.ebpf.verifier import Verifier, VerifierError
from repro.ebpf.vm import Vm, VmFault
from repro.net.irnf import IrChainNf, encode_packet
from repro.net.packet import Packet

N_PROGRAMS = int(os.environ.get("REPRO_FUZZ_PROGRAMS", "400"))
SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20260806"))
PACKETS_PER_PROGRAM = 3

ALU_OPS = ["add", "sub", "mul", "div", "mod", "and", "or", "xor", "lsh", "rsh"]
JMP_OPS = ["eq", "ne", "lt", "le", "gt", "ge"]


# -- program templates ------------------------------------------------------


def _t_guarded_pkt(rng: random.Random):
    """data_end-guarded load; sometimes the guard is too small."""
    need = rng.choice([8, 16, 24, 32])
    # Biased toward safe offsets; occasionally past the guard (reject).
    off = rng.choice([0, 8, need - 8, need - 8, need])
    return [
        Load(R2, R1, 0),
        Load(R3, R1, 8),
        Mov(R4, R2),
        Alu("add", R4, Imm(need)),
        JmpIf("gt", R4, R3, 7),
        Load(R0, R2, off),
        Exit(),
        Mov(R0, Imm(1)),
        Exit(),
    ]


def _t_counted_loop(rng: random.Random):
    """Counter-driven loop; sometimes the increment is dropped."""
    trips = rng.randint(1, 20)
    step = [Alu("add", R6, Imm(1))] if rng.random() > 0.15 else [Mov(R7, R6)]
    body = [
        Mov(R6, Imm(0)),
        Mov(R7, Imm(0)),
        Alu("add", R7, R6),
        *step,
        JmpIf("lt", R6, Imm(trips), 2),
        Mov(R0, R7),
        Alu("and", R0, Imm(3)),
        Exit(),
    ]
    return body


def _t_masked_div(rng: random.Random):
    """Divisor masked then offset; offset 0 leaves 0 in range (reject)."""
    mask = (1 << rng.randint(1, 5)) - 1
    bump = rng.choice([0, 1, 1, 2, 3])
    op = rng.choice(["div", "mod"])
    return [
        Call("bpf_get_prandom_u32"),
        Mov(R6, R0),
        Alu("and", R6, Imm(mask)),
        Alu("add", R6, Imm(bump)),
        Mov(R0, Imm(rng.randint(0, 10_000))),
        Alu(op, R0, R6),
        Alu("and", R0, Imm(3)),
        Exit(),
    ]


def _t_stack_table(rng: random.Random):
    """Init n slots, variable-offset read; sometimes reads past them."""
    n = rng.randint(1, 4)
    mask = rng.choice([8 * (n - 1), 8 * n]) & ~7
    insns = [Store(R10, -8 * (i + 1), Imm(i * 11)) for i in range(n)]
    insns += [
        Call("bpf_get_prandom_u32"),
        Alu("and", R0, Imm(mask)),
        Mov(R2, R10),
        Alu("sub", R2, Imm(8 * n)),
        Alu("add", R2, R0),
        Load(R0, R2, 0),
        Alu("and", R0, Imm(3)),
        Exit(),
    ]
    return insns


def _t_kptr(rng: random.Random):
    """Alloc / null-check / touch / release; sometimes leaks."""
    size = rng.choice([8, 16, 64])
    off = rng.choice([0, 8, size - 8, size])
    release = rng.random() > 0.2
    tail = [Mov(R1, R6), Call("bpf_obj_drop")] if release else [Mov(R5, R6)]
    end = 5 + len(tail) + 2
    return [
        Mov(R1, Imm(size)),
        Call("bpf_obj_new"),
        JmpIf("eq", R0, Imm(0), end),
        Mov(R6, R0),
        Store(R6, off, Imm(7)),
        *tail,
        Mov(R0, Imm(2)),
        Exit(),
        Mov(R0, Imm(1)),
        Exit(),
    ]


def _t_eq_dispatch(rng: random.Random):
    """Switch-style eq-chain on a masked scalar; all arms share a tail.

    The fall-through (general) state blackens the tail first, then
    every refined arm state arrives subsumed — the shape where the
    verifier's subsumption pruning pays off."""
    k = rng.randint(3, 8)
    tail = 3 + k
    insns = [
        Call("bpf_get_prandom_u32"),
        Mov(R6, R0),
        Alu("and", R6, Imm(0xFF)),
    ]
    for i in range(k):
        insns.append(JmpIf("eq", R6, Imm(i + 1), tail))
    insns += [
        Mov(R0, R6),
        Alu("and", R0, Imm(3)),
        Exit(),
    ]
    return insns


def _t_data_loop(rng: random.Random):
    """Loop bound read from a guarded packet word (data-dependent).

    The bound is usually masked, sometimes additionally clamped by a
    branch; the verifier must widen the header state and prove
    termination from the counter.  Reject-side variants drop the mask
    (widened trip bound overflows) or the increment (no progress)."""
    mask = rng.choice([0x1FF, 0x3FF, 0x7FF])
    step = rng.choice([1, 1, 1, 2, 3])
    masked = rng.random() > 0.1
    progress = rng.random() > 0.15
    refine = rng.random() < 0.4
    insns = [
        Load(R2, R1, 0),
        Load(R3, R1, 8),
        Mov(R4, R2),
        Alu("add", R4, Imm(8)),
        None,                        # guard jump, patched to the drop tail
        Load(R7, R2, 0),             # n = first packet word
    ]
    guard_at = 4
    if masked:
        insns.append(Alu("and", R7, Imm(mask)))
    if refine:
        limit = (mask >> 1) + 1
        insns.append(JmpIf("le", R7, Imm(limit), len(insns) + 2))
        insns.append(Mov(R7, Imm(limit)))
    insns += [Mov(R6, Imm(0)), Mov(R0, Imm(0))]
    header = len(insns)
    insns.append(Alu("add", R0, Imm(5)))
    insns.append(Alu("add", R6, Imm(step)) if progress else Mov(R5, R6))
    insns.append(JmpIf("lt", R6, R7, header))
    insns += [Alu("and", R0, Imm(3)), Exit()]
    drop = len(insns)
    insns += [Mov(R0, Imm(1)), Exit()]
    insns[guard_at] = JmpIf("gt", R4, R3, drop)
    return insns


def _t_spill_reload(rng: random.Random):
    """Scalar and pointer spills to one ``r10`` slot around a kfunc
    call, then a register a branch leaves dead on one path.

    The slot first holds a masked scalar, reloaded at once in the same
    block (the compiled backend forwards that load).  Most variants
    then spill a stack pointer to the same slot, and a kfunc call sits
    between a store and the final reload, so the reload is a scalar or
    a pointer the program reads a third slot through.  After that,
    ``r7`` is read past a branch whose fall-through path overwrites it:
    its earlier value is dead on one path only."""
    off = rng.choice([-8, -16, -24])
    mask = rng.choice([0xF, 0xFF, 0xFFFF])
    parts = {
        "scalar": [
            Store(R10, off, R6),
            Load(R7, R10, off),
            Alu("add", R7, Imm(rng.randint(0, 9))),
        ],
        "pointer": [
            Mov(R9, R10),
            Alu("sub", R9, Imm(32)),
            Store(R9, 0, Imm(rng.randint(0, 1 << 20))),
            Store(R10, off, R9),
        ],
        "call": [Call(rng.choice(["bpf_get_prandom_u32", "bpf_ktime_get_ns"]))],
    }
    order = rng.choice([
        ("scalar", "call", "pointer"),
        ("scalar", "pointer", "call"),
        ("call", "scalar", "pointer"),
        ("scalar", "call"),
    ])
    insns = [
        Call("bpf_get_prandom_u32"),
        Mov(R6, R0),
        Alu("and", R6, Imm(mask)),
    ]
    for part in order:
        insns += parts[part]
    insns.append(Load(R8, R10, off))
    if "pointer" in order:
        insns.append(Load(R8, R8, 0))
    tail = len(insns) + 2
    insns += [
        JmpIf("gt", R6, Imm(mask // 2), tail),
        Mov(R7, Imm(rng.randint(0, 9))),
        Alu("add", R7, R8),
        Mov(R0, R7),
        Alu("and", R0, Imm(3)),
        Exit(),
    ]
    return insns


def _t_junk(rng: random.Random):
    """Random instruction soup (forward jumps only); mostly rejected."""
    n = rng.randint(3, 10)
    insns = []
    for _ in range(n):
        kind = rng.randrange(5)
        if kind == 0:
            insns.append(Mov(rng.randrange(10), Imm(rng.randint(-64, 64))))
        elif kind == 1:
            insns.append(Mov(rng.randrange(10), rng.randrange(11)))
        elif kind == 2:
            insns.append(Alu(rng.choice(ALU_OPS), rng.randrange(10),
                             Imm(rng.randint(-4, 64))))
        elif kind == 3:
            insns.append(Store(R10, rng.choice([-8, -16, -24, 0, 8]),
                               Imm(rng.randint(0, 9))))
        else:
            insns.append(Load(rng.randrange(10), rng.randrange(11),
                              rng.choice([-8, -16, 0, 8])))
    insns += [Mov(R0, Imm(0)), Exit()]
    return insns


TEMPLATES = [_t_guarded_pkt, _t_counted_loop, _t_masked_div,
             _t_stack_table, _t_kptr, _t_eq_dispatch, _t_data_loop,
             _t_spill_reload, _t_junk]


def _mutate(rng: random.Random, insns):
    """Perturb one instruction; keeps the program syntactically valid."""
    i = rng.randrange(len(insns))
    insn = insns[i]
    if isinstance(insn, Alu) and isinstance(insn.src, Imm):
        insns[i] = Alu(insn.op, insn.dst, Imm(insn.src.value + rng.choice([-8, 8])))
    elif isinstance(insn, Load):
        insns[i] = Load(insn.dst, insn.base, insn.off + rng.choice([-8, 8]))
    elif isinstance(insn, JmpIf):
        insns[i] = JmpIf(rng.choice(JMP_OPS), insn.lhs, insn.rhs, insn.target)
    elif isinstance(insn, Mov):
        insns[i] = Mov(insn.dst, Imm(rng.randint(-16, 16)))
    return insns


def _gen_program(rng: random.Random, idx: int) -> Program:
    insns = rng.choice(TEMPLATES)(rng)
    if rng.random() < 0.3:
        insns = _mutate(rng, insns)
    return Program(insns, name=f"fuzz_{idx}")


def _rand_packet(rng: random.Random) -> bytes:
    return bytes(rng.randrange(256) for _ in range(rng.choice([0, 16, 40, 64])))


def _rand_frame(rng: random.Random) -> Packet:
    return Packet(
        src_ip=rng.getrandbits(32),
        dst_ip=rng.getrandbits(32),
        src_port=rng.getrandbits(16),
        dst_port=rng.getrandbits(16),
        proto=rng.randrange(256),
        size=rng.randint(64, 1500),
        timestamp_ns=rng.getrandbits(48),
    )


def _machine_state(vm: Vm, r0: int):
    return (r0, bytes(vm.stack), bytes(vm.packet), vm.stats.steps)


def _assert_fused_matches_interp(vp, frame: Packet, kfunc_seed: int):
    """One frame through the elided interpreter and through a fresh
    one-stage fused NF: same r0, stack bytes and ``VmStats``."""
    vm = Vm(runnable_registry(kfunc_seed), packet=encode_packet(frame),
            proofs=vp, elide_checks=True)
    r0 = vm.run(vp.prog)
    nf = IrChainNf(BpfRuntime(), [vp], registry=runnable_registry(kfunc_seed),
                   backend="fused")
    nf.process(frame)
    assert (nf.returns, bytes(nf._vm.stack)) == ([r0], bytes(vm.stack)), (
        f"{vp.prog.name} (seed {SEED}): fused run diverged"
    )
    assert nf.stats == vm.stats, (
        f"{vp.prog.name} (seed {SEED}): fused accounting diverged"
    )


def test_differential_fuzz():
    rng = random.Random(SEED)
    frame_rng = random.Random(SEED + 2)
    registry = runnable_registry(SEED)  # metadata only; impls re-bound per run
    verifier = Verifier(registry)
    accepted = rejected = 0

    for idx in range(N_PROGRAMS):
        prog = _gen_program(rng, idx)
        try:
            vp = verifier.verify(prog)
        except VerifierError:
            rejected += 1
            continue
        accepted += 1
        kfunc_seed = rng.randrange(1 << 30)
        for _ in range(PACKETS_PER_PROGRAM):
            packet = _rand_packet(rng)
            # Checked run: proofs attached, every check still performed.
            vm_c = Vm(runnable_registry(kfunc_seed), packet=packet,
                      proofs=vp, elide_checks=False)
            try:
                r0_c = vm_c.run(prog)
            except VmFault as exc:                      # pragma: no cover
                pytest.fail(
                    f"{prog.name} (seed {SEED}): verifier accepted but VM "
                    f"faulted with checks on: {exc}"
                )
            assert vm_c.stats.checks_elided == 0
            # Elided run: identical machine state, zero checks performed
            # beyond the unproven ones.
            vm_e = Vm(runnable_registry(kfunc_seed), packet=packet,
                      proofs=vp, elide_checks=True)
            r0_e = vm_e.run(prog)
            assert _machine_state(vm_c, r0_c) == _machine_state(vm_e, r0_e), (
                f"{prog.name} (seed {SEED}): elided run diverged"
            )
            assert (vm_e.stats.checks_performed + vm_e.stats.checks_elided
                    == vm_c.stats.checks_performed)
            # Compiled run on a frame: identical r0, stack AND
            # accounting (steps, check counts, cycle charges) to the
            # elided interpreter — the compiler's parity contract.
            _assert_fused_matches_interp(vp, _rand_frame(frame_rng),
                                         kfunc_seed)

    # Generator sanity: the sweep exercises both sides of the frontier.
    assert accepted >= N_PROGRAMS // 10, (accepted, rejected)
    assert rejected >= N_PROGRAMS // 10, (accepted, rejected)
    print(f"\ndifferential fuzz: {accepted} accepted / {rejected} rejected "
          f"of {N_PROGRAMS} (seed {SEED})")


def _t_wide_guard(rng: random.Random):
    """``data_end`` guard sized like a frame (up to 1504 bytes), so
    against 64-1500 byte frames it fails about half the time."""
    need = 8 * rng.randint(1, 188)
    off = rng.choice([0, 8, need - 8])
    return [
        Load(R2, R1, 0),
        Load(R3, R1, 8),
        Mov(R4, R2),
        Alu("add", R4, Imm(need)),
        JmpIf("gt", R4, R3, 7),
        Load(R0, R2, off),
        Exit(),
        Mov(R0, Imm(1)),
        Exit(),
    ], need


def test_fused_guard_fail_family():
    """Compiled parity on both sides of a ``data_end`` guard: the main
    corpus's guards need at most 32 bytes, which every frame has."""
    rng = random.Random(SEED + 3)
    verifier = Verifier(runnable_registry(SEED))
    passed = failed = 0
    for idx in range(120):
        insns, need = _t_wide_guard(rng)
        vp = verifier.verify(Program(insns, name=f"wide_guard_{idx}"))
        frame = _rand_frame(rng)
        _assert_fused_matches_interp(vp, frame, kfunc_seed=idx)
        if need > frame.size:
            failed += 1
        else:
            passed += 1
    assert passed >= 30 and failed >= 30, (passed, failed)


def test_spill_reload_family():
    """Compiled parity on every variant of the spill/reload template,
    unmutated: each verifies, its same-block reload is forwarded, and
    the fused run matches the interpreter in r0, stack bytes and
    ``VmStats`` whichever way the branch goes."""
    rng = random.Random(SEED + 4)
    verifier = Verifier(runnable_registry(SEED))
    for idx in range(60):
        vp = verifier.verify(
            Program(_t_spill_reload(rng), name=f"spill_reload_{idx}")
        )
        assert fuse_chain(runnable_registry(0), [vp]).forwarded_stack_loads
        for _ in range(PACKETS_PER_PROGRAM):
            _assert_fused_matches_interp(
                vp, _rand_frame(rng), kfunc_seed=rng.randrange(1 << 30)
            )


def _t_pktend_spill(rng: random.Random):
    """``data_end`` spilled to an ``r10`` slot, read back or not.

    The ``bare`` variant reads no packet byte and compares no bound:
    the spill is the only use of ``data_end``.  ``guard`` reloads the
    spilled ``data_end`` for a bound check, and ``respill`` moves it to
    a second slot across a kfunc call."""
    off = rng.choice([-8, -16, -24])
    head = [Load(R3, R1, 8), Store(R10, off, R3)]
    kind = rng.choice(["bare", "guard", "respill"])
    if kind == "bare":
        return head + [Mov(R0, Imm(rng.randint(0, 3))), Exit()]
    if kind == "respill":
        return head + [
            Call(rng.choice(["bpf_get_prandom_u32", "bpf_ktime_get_ns"])),
            Load(R4, R10, off),
            Store(R10, off - 8, R4),
            Alu("and", R0, Imm(3)),
            Exit(),
        ]
    need = 8 * rng.randint(1, 4)
    return [Load(R2, R1, 0)] + head + [
        Load(R4, R10, off),
        Mov(R5, R2),
        Alu("add", R5, Imm(need)),
        JmpIf("gt", R5, R4, 10),
        Load(R0, R2, need - 8),
        Alu("and", R0, Imm(3)),
        Exit(),
        Mov(R0, Imm(1)),
        Exit(),
    ]


def test_pktend_spill_family():
    """Compiled parity when ``data_end`` lives on only through a stack
    spill: the fused code still binds the packet end it stores."""
    rng = random.Random(SEED + 5)
    verifier = Verifier(runnable_registry(SEED))
    for idx in range(30):
        vp = verifier.verify(
            Program(_t_pktend_spill(rng), name=f"pktend_spill_{idx}")
        )
        for _ in range(PACKETS_PER_PROGRAM):
            _assert_fused_matches_interp(
                vp, _rand_frame(rng), kfunc_seed=rng.randrange(1 << 30)
            )


def test_data_loop_family_states_bounded():
    """Widened data-dependent loops verify in O(1) abstract states per
    header: across the template family the accepted programs' state
    counts stay flat instead of scaling with the (data-dependent) trip
    bound — the seed verifier needed one abstract state per trip."""
    rng = random.Random(SEED + 1)
    verifier = Verifier(runnable_registry(SEED))
    accepted = widened = 0
    for idx in range(80):
        prog = Program(_t_data_loop(rng), name=f"dloop_{idx}")
        try:
            vp = verifier.verify(prog)
        except VerifierError:
            continue
        accepted += 1
        if vp.stats.loops_widened:
            widened += 1
            # The first fixpoint attempt enumerates at most
            # WIDEN_AFTER_TRIPS trips before widening kicks in; the
            # converged attempt holds one invariant state per header.
            assert vp.stats.states_explored <= 2500, (
                prog.name, vp.stats.states_explored)
            assert vp.stats.fixpoint_iters <= 32, prog.name
            assert vp.annotations.loop_invariants, prog.name
    assert accepted >= 20, (accepted, widened)
    assert widened >= 5, (accepted, widened)


def test_pruning_differential():
    """Subsumption pruning is verdict-transparent: on the same corpus,
    the pruned and unpruned verifiers agree on accept/reject, on the
    rejection reason class, and — for accepts — on every proof
    annotation the VM and JIT consume (``safe_mem``, ``safe_div``,
    ``loop_bounds``)."""
    rng = random.Random(SEED)
    registry = runnable_registry(SEED)
    pruned_v = Verifier(registry)
    unpruned_v = Verifier(registry, prune=False)
    total_pruned_states = 0

    for idx in range(N_PROGRAMS):
        prog = _gen_program(rng, idx)
        try:
            vp_p = pruned_v.verify(prog)
        except VerifierError as exc:
            with pytest.raises(VerifierError):
                unpruned_v.verify(prog)
            continue
        vp_u = unpruned_v.verify(prog)  # must not raise
        assert vp_p.annotations.safe_mem == vp_u.annotations.safe_mem, prog.name
        assert vp_p.annotations.safe_div == vp_u.annotations.safe_div, prog.name
        assert (vp_p.annotations.loop_bounds
                == vp_u.annotations.loop_bounds), prog.name
        assert (
            {h: i.trip_bound
             for h, i in vp_p.annotations.loop_invariants.items()}
            == {h: i.trip_bound
                for h, i in vp_u.annotations.loop_invariants.items()}
        ), prog.name
        assert vp_u.stats.states_pruned == 0
        assert (vp_p.stats.states_explored + vp_p.stats.states_pruned
                <= vp_u.stats.states_explored + vp_p.stats.states_pruned)
        total_pruned_states += vp_p.stats.states_pruned

    # The corpus must actually exercise the pruner, or this test is vacuous.
    assert total_pruned_states > 0
