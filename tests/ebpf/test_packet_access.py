"""Packet-data access: the XDP data/data_end bounds-check pattern."""

import pytest

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
    R0,
    R1,
    R2,
    R3,
    R6,
)
from repro.ebpf.kfunc_meta import default_registry
from repro.ebpf.verifier import Verifier, VerifierError
from repro.ebpf.vm import Vm, VmFault


@pytest.fixture
def verifier():
    return Verifier(default_registry())


def verify(verifier, *insns):
    return verifier.verify(Program(list(insns), name="pkt"))


def reject(verifier, *insns, match):
    with pytest.raises(VerifierError, match=match):
        verify(verifier, *insns)


def checked_read_prog(check_len=16, read_off=0):
    """The canonical XDP prologue: bound-check then read."""
    return [
        Load(R2, R1, 0),               # r2 = ctx->data
        Load(R3, R1, 8),               # r3 = ctx->data_end
        Mov(R6, R2),
        Alu("add", R6, Imm(check_len)),
        JmpIf("gt", R6, R3, 7),        # if data+len > end: drop
        Load(R0, R2, read_off),        # in-bounds read
        Exit(),
        Mov(R0, Imm(0)),
        Exit(),
    ]


class TestVerifierPacketAccess:
    def test_checked_read_accepted(self, verifier):
        verify(verifier, *checked_read_prog(16, 0))
        verify(verifier, *checked_read_prog(16, 8))

    def test_unchecked_read_rejected(self, verifier):
        reject(
            verifier,
            Load(R2, R1, 0),
            Load(R0, R2, 0),
            Exit(),
            match="missing data_end check",
        )

    def test_read_past_checked_length_rejected(self, verifier):
        # 16 bytes proven, 8-byte read at offset 12 needs 20.
        reject(verifier, *checked_read_prog(16, 12),
               match="out of bounds")

    def test_check_does_not_leak_to_wrong_branch(self, verifier):
        """The taken (out-of-bounds) branch must not be able to read."""
        reject(
            verifier,
            Load(R2, R1, 0),
            Load(R3, R1, 8),
            Mov(R6, R2),
            Alu("add", R6, Imm(16)),
            JmpIf("gt", R6, R3, 7),
            Mov(R0, Imm(0)),
            Exit(),
            Load(R0, R2, 0),    # this is the FAIL branch: no proof here
            Exit(),
            match="missing data_end check",
        )

    def test_le_check_on_taken_branch(self, verifier):
        verify(
            verifier,
            Load(R2, R1, 0),
            Load(R3, R1, 8),
            Mov(R6, R2),
            Alu("add", R6, Imm(8)),
            JmpIf("le", R6, R3, 7),    # taken branch is the proven one
            Mov(R0, Imm(0)),
            Exit(),
            Load(R0, R2, 0),
            Exit(),
        )

    def test_data_end_dereference_rejected(self, verifier):
        reject(
            verifier,
            Load(R3, R1, 8),
            Load(R0, R3, 0),
            Exit(),
            match="cannot dereference",
        )

    def test_data_end_arithmetic_rejected(self, verifier):
        reject(
            verifier,
            Load(R3, R1, 8),
            Alu("add", R3, Imm(8)),
            Mov(R0, Imm(0)),
            Exit(),
            match="data_end",
        )

    def test_eq_check_against_data_end_rejected(self, verifier):
        reject(
            verifier,
            Load(R2, R1, 0),
            Load(R3, R1, 8),
            JmpIf("eq", R2, R3, 4),
            Mov(R0, Imm(0)),
            Exit(),
            Mov(R0, Imm(0)),
            Exit(),
            match="lt/le/gt/ge",
        )

    def test_packet_write_after_check(self, verifier):
        verify(
            verifier,
            Load(R2, R1, 0),
            Load(R3, R1, 8),
            Mov(R6, R2),
            Alu("add", R6, Imm(8)),
            JmpIf("gt", R6, R3, 7),
            Store(R2, 0, Imm(0xFF)),   # rewrite the first 8 bytes
            Jmp(7),
            Mov(R0, Imm(0)),
            Exit(),
        )

    def test_checks_accumulate(self, verifier):
        """A longer proof extends, never shrinks, the accessible range."""
        verify(
            verifier,
            Load(R2, R1, 0),
            Load(R3, R1, 8),
            Mov(R6, R2),
            Alu("add", R6, Imm(8)),
            JmpIf("gt", R6, R3, 11),
            Mov(R6, R2),
            Alu("add", R6, Imm(24)),
            JmpIf("gt", R6, R3, 11),
            Load(R0, R2, 16),          # needs the 24-byte proof
            Exit(),
            Jmp(11),
            Mov(R0, Imm(0)),
            Exit(),
        )


class TestVmPacketAccess:
    def _run(self, prog_insns, packet: bytes):
        prog = Program(prog_insns, name="pkt")
        Verifier(default_registry()).verify(prog)
        return Vm(default_registry(), packet=packet).run(prog)

    def test_reads_real_packet_bytes(self):
        packet = (0xDEADBEEFCAFEF00D).to_bytes(8, "little") + bytes(8)
        assert self._run(checked_read_prog(16, 0), packet) == 0xDEADBEEFCAFEF00D

    def test_short_packet_takes_drop_branch(self):
        result = self._run(checked_read_prog(16, 0), bytes(8))
        assert result == 0   # bound check fails -> drop path

    def test_exact_length_packet_passes(self):
        packet = bytes(range(16))
        result = self._run(checked_read_prog(16, 8), packet)
        assert result == int.from_bytes(bytes(range(8, 16)), "little")

    def test_unverified_oob_read_faults(self):
        prog = Program(
            [Load(R2, R1, 0), Load(R0, R2, 64), Exit()], name="bad"
        )
        with pytest.raises(VmFault, match="packet access out of bounds"):
            Vm(default_registry(), packet=bytes(16)).run(prog)
