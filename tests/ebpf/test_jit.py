"""The code generator's parity, unrolling, and proof contracts.

:mod:`repro.ebpf.jit` lowers verified programs to Python; its one
execution path is fusion, and a single program runs as a one-stage
chain (``IrChainNf([prog], backend="fused")``).  The promise is
*bit-identical observable behavior* to the interpreter — r0, final
stack/ctx bytes (packet bytes too, when the fused loop still encodes
the frame), step counts, check accounting, and cycle charges by
category — while executing straight-line generated Python.  These
tests pin that promise on every bundled program (both elide modes),
plus kfunc state across packets, the unrolling shape, the oversized
loop fallback, and the proofs requirement.
"""

import random

import pytest

from repro.ebpf.fuse import fuse_chain
from repro.ebpf.insn import (
    Alu,
    Call,
    Exit,
    Imm,
    JmpIf,
    Mov,
    Program,
    R0,
    R6,
    R7,
)
from repro.ebpf.jit import JitError
from repro.ebpf.progs import bundled_cases, get_case, runnable_registry
from repro.ebpf.runtime import BpfRuntime
from repro.ebpf.verifier import Verifier, VerifierError
from repro.ebpf.vm import Vm
from repro.net.irnf import IrChainNf, encode_packet
from repro.net.packet import Packet

from tests.ebpf.test_fuse import _kfunc_state

SEED = 20260806


def _accepted_cases():
    verifier = Verifier(runnable_registry(0))
    out = []
    for case in bundled_cases():
        try:
            out.append((case, verifier.verify(case.prog)))
        except VerifierError:
            pass
    return out


def _rand_packet(rng):
    return Packet(
        src_ip=rng.getrandbits(32),
        dst_ip=rng.getrandbits(32),
        src_port=rng.getrandbits(16),
        dst_port=rng.getrandbits(16),
        proto=rng.choice((0, 6, 17)),
        size=rng.choice((64, 128, 1500)),
        timestamp_ns=rng.getrandbits(40),
    )


def _stats(stats):
    return (stats.steps, stats.checks_performed, stats.checks_elided,
            stats.insn_cycles, stats.check_cycles)


def _interp_state(vp, pkt, elide=True, seed=3):
    """One interpreted run on a fresh VM: r0, stack, ctx, packet, stats."""
    vm = Vm(runnable_registry(seed), packet=encode_packet(pkt), proofs=vp,
            elide_checks=elide)
    r0 = vm.run(vp.prog)
    return (r0, bytes(vm.stack), bytes(vm.ctx), bytes(vm.packet),
            _stats(vm.stats))


def _fused_state(vp, pkt, elide=True, seed=3):
    """The same packet through a fresh one-stage fused NF.  The packet
    buffer is observable only when the fused loop encodes the frame."""
    nf = IrChainNf(BpfRuntime(), [vp], registry=runnable_registry(seed),
                   elide_checks=elide, backend="fused")
    nf.process(pkt)
    vm = nf._vm
    packet = bytes(vm.packet) if nf._fused.encodes_packet else None
    return (nf.returns[-1], bytes(vm.stack), bytes(vm.ctx), packet,
            _stats(nf.stats))


def _assert_parity(vp, pkt, elide=True, label=""):
    interp = _interp_state(vp, pkt, elide)
    fused = _fused_state(vp, pkt, elide)
    if fused[3] is None:
        interp = interp[:3] + (None,) + interp[4:]
    assert interp == fused, label


def _observable(nf, rt):
    snap = rt.cycles.snapshot()
    return (
        tuple(nf.returns),
        _stats(nf.stats),
        rt.cycles.total,
        tuple(sorted((c.name, v) for c, v in snap.by_category.items())),
    )


# -- parity ------------------------------------------------------------------


def test_bundled_parity_all_programs():
    """Every accepted bundled program, both elide modes, several
    packets: the compiled program's machine state and accounting match
    the interpreter bit for bit."""
    rng = random.Random(SEED)
    checked = 0
    for case, vp in _accepted_cases():
        for _ in range(3):
            pkt = _rand_packet(rng)
            for elide in (True, False):
                _assert_parity(vp, pkt, elide, f"{case.name} elide={elide}")
                checked += 1
    assert checked >= 60  # 13 accepted programs x 3 packets x 2 modes


def test_cycle_charges_identical():
    """Runtime cycle charges match per category, over a batch."""
    rng = random.Random(SEED + 1)
    pkts = [_rand_packet(rng) for _ in range(8)]
    for case, vp in _accepted_cases():
        seen = {}
        for backend in ("interp", "fused"):
            rt = BpfRuntime()
            nf = IrChainNf(rt, [vp], registry=runnable_registry(3),
                           backend=backend)
            nf.process_batch(pkts)
            seen[backend] = _observable(nf, rt)
        assert seen["interp"] == seen["fused"], case.name


def test_kfunc_state_accumulates_identically():
    """Kfunc state lives in the registry closure and carries across
    packets: a 50-packet sketch run produces the same estimate
    sequence and the same sketch rows and PRNG position under both
    backends."""
    vp = Verifier(runnable_registry(0)).verify(get_case("nf_cm_sketch").prog)
    rng = random.Random(7)
    pkts = [_rand_packet(rng) for _ in range(50)]
    results = {}
    for backend in ("interp", "fused"):
        reg = runnable_registry(5)
        nf = IrChainNf(BpfRuntime(), [vp], registry=reg, backend=backend)
        for pkt in pkts:
            nf.process(pkt)
        results[backend] = (tuple(nf.returns), _kfunc_state(reg))
    assert results["interp"] == results["fused"]


def test_jit_requires_proofs():
    prog = Program([Mov(R0, Imm(0)), Exit()], name="tiny")
    with pytest.raises(JitError):
        fuse_chain(runnable_registry(0), [prog])


def test_unknown_backend_rejected():
    """The VM is the interpreter only: it takes no backend switch."""
    with pytest.raises(TypeError):
        Vm(runnable_registry(0), backend="interp")


# -- generated code shape ----------------------------------------------------


def test_loop_unrolled_to_straight_line():
    """loop_counted's proven 15 back-edge traversals unroll into 16
    body copies with forward-only control flow: no back-edge survives,
    so the stage is structured code with no ``_b`` dispatch loop."""
    reg = runnable_registry(0)
    vp = Verifier(reg).verify(get_case("loop_counted").prog)
    fused = fuse_chain(reg, [vp])
    assert fused.unrolled == {"loop_counted": {4: 16}}
    assert fused.dispatch_stages == ()
    assert "while True" not in fused.source
    assert "eval" not in fused.source


def test_oversized_loop_falls_back_to_dispatch():
    """A trip count past UNROLL_MAX_TRIPS still compiles — as a real
    dispatch loop with the step-budget guard — and stays bit-identical."""
    insns = [
        Mov(R6, Imm(0)),
        Mov(R7, Imm(0)),
        Alu("add", R7, R6),
        Alu("add", R6, Imm(1)),
        JmpIf("lt", R6, Imm(200), 2),   # 200 trips > UNROLL_MAX_TRIPS
        Mov(R0, R7),
        Exit(),
    ]
    prog = Program(insns, name="loop_wide")
    reg = runnable_registry(0)
    vp = Verifier(reg).verify(prog)
    fused = fuse_chain(reg, [vp])
    assert fused.unrolled == {"loop_wide": {}}
    assert fused.dispatch_stages == ("loop_wide",)
    _assert_parity(vp, _rand_packet(random.Random(SEED)))


def test_deep_fall_through_keeps_dispatch_loop():
    """A non-final stage whose 90 checks each pass the packet on nests
    one level per check as structured code (a pass falls out of the
    stage, so no arm can end early); past the nesting budget the stage
    keeps the dispatch loop although it is acyclic, and stays
    bit-identical to the interpreted chain."""
    checks = 90
    insns = [
        Call("bpf_get_prandom_u32"),
        Mov(R6, R0),
        Alu("and", R6, Imm(127)),
    ]
    insns += [JmpIf("eq", R6, Imm(k), checks + 5) for k in range(checks)]
    insns += [Mov(R0, Imm(1)), Exit(), Mov(R0, Imm(2)), Exit()]
    verifier = Verifier(runnable_registry(0))
    chain = [
        verifier.verify(Program(insns, name="deep_pass")),
        verifier.verify(Program([Mov(R0, Imm(3)), Exit()], name="tx")),
    ]
    assert fuse_chain(runnable_registry(0), chain).dispatch_stages == (
        "deep_pass",
    )
    pkts = [_rand_packet(random.Random(SEED + i)) for i in range(64)]
    seen = {}
    for backend in ("interp", "fused"):
        rt = BpfRuntime()
        reg = runnable_registry(3)
        nf = IrChainNf(rt, chain, registry=reg, backend=backend)
        nf.process_batch(pkts)
        seen[backend] = (_observable(nf, rt), _kfunc_state(reg))
    assert seen["interp"] == seen["fused"]
    assert set(seen["fused"][0][0]) == {1, 3}


def test_compiled_program_metadata():
    case = get_case("nf_cm_sketch")
    reg = runnable_registry(0)
    vp = Verifier(reg).verify(case.prog)
    fused = fuse_chain(reg, [vp])
    # The 3-trip back-edge at pc 12 expands into 4 body copies.
    assert fused.unrolled == {"nf_cm_sketch": {12: 4}}
    assert fused.n_nodes > 4
    assert fused.source.startswith("def _fused_nf_cm_sketch")
