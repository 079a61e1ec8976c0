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
loop fallback, content-hash cache keys, and the proofs requirement.
"""

import random

import pytest

from repro.ebpf.fuse import fuse_chain, fused_for
from repro.ebpf.insn import (
    Alu,
    Exit,
    Imm,
    JmpIf,
    Mov,
    Program,
    R0,
    R6,
    R7,
)
from repro.ebpf.jit import JitError, program_hash
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
    body copies with forward-only dispatch — no `continue` (the
    generated code's only backward-jump construct, and a one-stage
    chain has no early exit) survives."""
    reg = runnable_registry(0)
    vp = Verifier(reg).verify(get_case("loop_counted").prog)
    fused = fuse_chain(reg, [vp])
    assert fused.unrolled == {"loop_counted": {4: 16}}
    assert "continue" not in fused.source
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
    assert "continue" in fused.source
    _assert_parity(vp, _rand_packet(random.Random(SEED)))


def test_compiled_program_metadata():
    case = get_case("nf_cm_sketch")
    reg = runnable_registry(0)
    vp = Verifier(reg).verify(case.prog)
    fused = fuse_chain(reg, [vp])
    assert fused.stage_hashes == (program_hash(case.prog),)
    assert fused.stage_names == ("nf_cm_sketch",)
    assert fused.elide_checks is True
    # The 3-trip back-edge at pc 12 expands into 4 body copies.
    assert fused.unrolled == {"nf_cm_sketch": {12: 4}}
    assert fused.n_nodes > 4
    assert fused.source.startswith("def _fused_nf_cm_sketch")


# -- compiled-code cache ------------------------------------------------------


def test_cache_miss_on_mutated_program():
    """Re-verifying a mutated program must miss the fused cache: the
    key is the program's content hash, not its name or identity."""
    case = get_case("nf_classifier")
    reg = runnable_registry(0)
    verifier = Verifier(reg)
    vp = verifier.verify(case.prog)
    original = fused_for(reg, [vp])

    mutated_insns = list(case.prog)
    # Flip the verdict fold: `and r0, 1` -> `and r0, 3`.
    mutated_insns[19] = Alu("and", R0, Imm(3))
    mutated = Program(mutated_insns, name=case.prog.name)  # same name!
    assert program_hash(mutated) != program_hash(case.prog)
    recompiled = fused_for(reg, [verifier.verify(mutated)])
    assert recompiled is not original
    assert recompiled.stage_hashes != original.stage_hashes

    # The original's cache entry is untouched.
    assert fused_for(reg, [vp]) is original
