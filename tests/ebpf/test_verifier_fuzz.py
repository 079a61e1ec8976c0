"""Fuzz properties: the verifier's soundness contract.

1. The verifier never crashes: any syntactically valid program is
   either accepted or rejected with :class:`VerifierError`.
2. Soundness: any *accepted* program runs in the VM without a single
   runtime fault — for any packet contents.
"""

from hypothesis import given, settings, strategies as st

from repro.ebpf.insn import (
    Alu,
    Exit,
    Imm,
    Jmp,
    JmpIf,
    Load,
    Mov,
    Program,
    Store,
)
from repro.ebpf.kfunc_meta import default_registry
from repro.ebpf.verifier import Verifier, VerifierError
from repro.ebpf.vm import Vm

REGS = st.integers(0, 9)             # writable registers
ANY_REG = st.integers(0, 10)         # includes the frame pointer
IMM = st.integers(-64, 64)
STACK_OFF = st.sampled_from([-8, -16, -24, -32, -496, -504, -512, 0, 8])
ALU_OP = st.sampled_from(["add", "sub", "mul", "and", "or", "xor", "lsh", "rsh"])
JMP_OP = st.sampled_from(["eq", "ne", "lt", "le", "gt", "ge"])

insn_strategy = st.one_of(
    st.builds(Mov, dst=REGS, src=st.one_of(ANY_REG, st.builds(Imm, value=IMM))),
    st.builds(
        Alu, op=ALU_OP, dst=REGS,
        src=st.one_of(ANY_REG, st.builds(Imm, value=IMM)),
    ),
    st.builds(Load, dst=REGS, base=ANY_REG, off=STACK_OFF),
    st.builds(
        Store, base=ANY_REG, off=STACK_OFF,
        src=st.one_of(ANY_REG, st.builds(Imm, value=IMM)),
    ),
    st.builds(
        JmpIf, op=JMP_OP, lhs=ANY_REG,
        rhs=st.one_of(ANY_REG, st.builds(Imm, value=IMM)),
        target=st.integers(0, 30),
    ),
    st.builds(Jmp, target=st.integers(0, 30)),
)


def _make_program(insns):
    """Clamp jump targets forward + in range, then append an exit."""
    body = list(insns) + [Mov(0, Imm(0)), Exit()]
    n = len(body)
    fixed = []
    for i, insn in enumerate(body):
        if isinstance(insn, Jmp):
            target = min(max(insn.target, i + 1), n - 1)
            insn = Jmp(target)
        elif isinstance(insn, JmpIf):
            target = min(max(insn.target, i + 1), n - 1)
            insn = JmpIf(insn.op, insn.lhs, insn.rhs, target)
        fixed.append(insn)
    return Program(fixed, name="fuzz")


@settings(max_examples=300, deadline=None)
@given(st.lists(insn_strategy, max_size=24))
def test_verifier_never_crashes(insns):
    prog = _make_program(insns)
    try:
        Verifier(default_registry()).verify(prog)
    except VerifierError:
        pass   # rejection is a valid outcome; crashing is not


@settings(max_examples=300, deadline=None)
@given(
    st.lists(insn_strategy, max_size=24),
    st.binary(min_size=0, max_size=64),
)
def test_accepted_programs_never_fault(insns, packet):
    prog = _make_program(insns)
    registry = default_registry()
    try:
        Verifier(registry).verify(prog)
    except VerifierError:
        return
    # Accepted: must run clean on any packet, and terminate.
    result = Vm(registry, packet=packet).run(prog, max_steps=500)
    assert isinstance(result, int)
