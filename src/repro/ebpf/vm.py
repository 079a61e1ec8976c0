"""Concrete interpreter for verified programs.

The VM executes the IR of :mod:`repro.ebpf.insn` with real memory:
a 512-byte stack, a context buffer, and kernel objects returned by
kfunc implementations.  It exists to demonstrate that programs the
verifier accepts actually run safely (and that its runtime assertions
agree with the verifier's static judgments) — the performance
simulation does not run NFs on this VM.

**Check elision.**  Handing the VM a :class:`~repro.ebpf.verifier.
VerifiedProgram` (or its :class:`~repro.ebpf.verifier.ProofAnnotations`)
lets it *skip* the runtime safety checks the verifier already
discharged statically: bounds checks on proven Load/Store instructions
and divisor tests on proven div/mod — the paper's lazy-checking payoff
(§4.1, §4.4), where static proofs buy back hot-path cycles.  The
``elide_checks`` switch is the ablation knob: with proofs attached but
``elide_checks=False`` every check still runs (and is charged), so
benchmarks can compare checked vs elided cycle totals on bit-identical
executions.  :class:`VmStats` reports steps, checks performed/elided,
and the cycles charged to each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from .cost_model import Category, CostModel, Cycles, DEFAULT_COSTS
from .insn import (
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
    R10,
    N_REGS,
    STACK_SIZE,
)
from .kfunc_meta import KfuncRegistry, RET_KPTR, RET_VOID

MASK64 = (1 << 64) - 1


class VmFault(Exception):
    """Runtime fault (should be unreachable for verified programs)."""


class KernelObject:
    """A kernel memory region handed to the program via a kptr."""

    def __init__(self, size: int, tag: str = "obj") -> None:
        self.data = bytearray(size)
        self.tag = tag
        self.alive = True
        self.refcount = 1

    def free(self) -> None:
        self.alive = False


@dataclass(frozen=True)
class Pointer:
    """A typed pointer value: region + byte offset."""

    region: Any            # "stack", "ctx", or a KernelObject
    off: int = 0

    def __add__(self, delta: int) -> "Pointer":
        return Pointer(self.region, self.off + delta)


Value = Union[int, Pointer]


@dataclass
class VmStats:
    """Execution statistics for one :meth:`Vm.run`."""

    steps: int = 0
    checks_performed: int = 0
    checks_elided: int = 0
    insn_cycles: int = 0
    check_cycles: int = 0

    @property
    def total_cycles(self) -> int:
        return self.insn_cycles + self.check_cycles


class Vm:
    """Interpreter instance; one per program run.

    ``proofs`` accepts a ``VerifiedProgram`` or its ``ProofAnnotations``;
    with ``elide_checks=True`` (default) statically proven checks are
    skipped.  ``cycles`` (a :class:`~repro.ebpf.cost_model.Cycles`
    counter) enables cycle charging per ``costs``: every interpreted
    instruction costs ``insn_exec``, every *performed* bounds check
    ``bounds_check``, every performed divisor test ``div_check``.
    """

    def __init__(
        self,
        registry: KfuncRegistry,
        ctx_size: int = 256,
        packet: bytes = b"",
        proofs: Optional[Any] = None,
        costs: CostModel = DEFAULT_COSTS,
        cycles: Optional[Cycles] = None,
        elide_checks: bool = True,
    ) -> None:
        self.registry = registry
        self.stack = bytearray(STACK_SIZE)
        self.ctx = bytearray(ctx_size)
        self.packet = bytearray(packet)
        self.regs: List[Value] = [0] * N_REGS
        self.live_objects: List[KernelObject] = []
        self.trace: List[str] = []
        # Pointer spills: stack slots holding pointers are tracked by
        # identity (the verifier tracks them symbolically the same way).
        self._ptr_slots: Dict[int, Pointer] = {}
        ann = getattr(proofs, "annotations", proofs)
        self.proofs = ann
        self.costs = costs
        self.cycles = cycles
        self.stats = VmStats()
        self._elide = bool(ann is not None and elide_checks)
        if self._elide:
            self._safe_mem = ann.safe_mem
            self._safe_div = ann.safe_div
        else:
            self._safe_mem = frozenset()
            self._safe_div = frozenset()

    # -- memory ------------------------------------------------------------

    def _buffer_for(self, ptr: Pointer) -> (bytearray, int):
        if ptr.region == "stack":
            # Stack offsets are negative from the frame top.
            addr = STACK_SIZE + ptr.off
            if not 0 <= addr <= STACK_SIZE - 8:
                raise VmFault(f"stack access out of bounds at fp{ptr.off:+d}")
            return self.stack, addr
        if ptr.region == "ctx":
            if not 0 <= ptr.off <= len(self.ctx) - 8:
                raise VmFault(f"ctx access out of bounds at +{ptr.off}")
            return self.ctx, ptr.off
        if ptr.region == "pkt":
            if not 0 <= ptr.off <= len(self.packet) - 8:
                raise VmFault(f"packet access out of bounds at +{ptr.off}")
            return self.packet, ptr.off
        obj = ptr.region
        if not isinstance(obj, KernelObject):
            raise VmFault(f"dereference of non-pointer region {obj!r}")
        if not obj.alive:
            raise VmFault(f"use-after-free of kernel object {obj.tag!r}")
        if not 0 <= ptr.off <= len(obj.data) - 8:
            raise VmFault(f"kernel object access out of bounds at +{ptr.off}")
        return obj.data, ptr.off

    def _buffer_unchecked(self, ptr: Pointer) -> (bytearray, int):
        """Resolve a pointer with *no* safety checks — only reachable
        for accesses the verifier proved in-bounds (and objects it
        proved alive)."""
        if ptr.region == "stack":
            return self.stack, STACK_SIZE + ptr.off
        if ptr.region == "ctx":
            return self.ctx, ptr.off
        if ptr.region == "pkt":
            return self.packet, ptr.off
        return ptr.region.data, ptr.off

    def read_u64(self, ptr: Pointer) -> int:
        buf, addr = self._buffer_for(ptr)
        return int.from_bytes(buf[addr : addr + 8], "little")

    def write_u64(self, ptr: Pointer, value: int) -> None:
        buf, addr = self._buffer_for(ptr)
        buf[addr : addr + 8] = (value & MASK64).to_bytes(8, "little")

    def _mem_checked(self, pc: int) -> bool:
        """Decide + account one memory access's bounds check."""
        if pc in self._safe_mem:
            self.stats.checks_elided += 1
            return False
        self.stats.checks_performed += 1
        self.stats.check_cycles += self.costs.bounds_check
        return True

    # -- execution -----------------------------------------------------------

    def run(self, prog: Program, max_steps: Optional[int] = None) -> int:
        """Execute ``prog``; returns r0 at exit."""
        if max_steps is None:
            if self.proofs is not None:
                # An accepted program's abstract state graph is acyclic
                # (pruned states included — subsumption edges point to
                # earlier states): a concrete run takes at most one
                # step per explored-or-pruned abstract state.  Widened
                # loops close cycles in that graph, so their proven
                # trip budgets are added separately.
                max_steps = (
                    self.proofs.states_explored
                    + getattr(self.proofs, "states_pruned", 0)
                    + getattr(self.proofs, "widened_steps", 0)
                    + len(prog)
                    + 64
                )
            else:
                max_steps = len(prog) * 4 + 64
        self.regs = [0] * N_REGS
        self.regs[R1] = Pointer("ctx")
        self.regs[R10] = Pointer("stack")
        pc = 0
        steps = 0
        try:
            for _ in range(max_steps):
                insn = prog[pc]
                if isinstance(insn, Exit):
                    r0 = self.regs[R0]
                    if isinstance(r0, Pointer):
                        raise VmFault("exit with pointer in R0")
                    return r0 & MASK64
                steps += 1
                pc = self._step(insn, pc)
        finally:
            self.stats.steps += steps
            self.stats.insn_cycles += steps * self.costs.insn_exec
            if self.cycles is not None:
                self.cycles.charge(steps * self.costs.insn_exec, Category.OTHER)
                if self.stats.check_cycles:
                    self.cycles.charge(
                        self.stats.check_cycles, Category.FRAMEWORK
                    )
                    self.stats.check_cycles = 0
        raise VmFault("step limit exceeded (runaway program)")

    def _operand(self, src: Union[int, Imm]) -> Value:
        if isinstance(src, Imm):
            return src.value & MASK64
        return self.regs[src]

    def _step(self, insn, pc: int) -> int:
        if isinstance(insn, Mov):
            self.regs[insn.dst] = self._operand(insn.src)
            return pc + 1
        if isinstance(insn, Alu):
            self._do_alu(insn, pc)
            return pc + 1
        if isinstance(insn, Load):
            base = self.regs[insn.base]
            if not isinstance(base, Pointer):
                raise VmFault(f"load via non-pointer r{insn.base}")
            target = base + insn.off
            if target.region == "ctx" and target.off == 0:
                self.regs[insn.dst] = Pointer("pkt", 0)      # ctx->data
            elif target.region == "ctx" and target.off == 8:
                self.regs[insn.dst] = Pointer("pkt", len(self.packet))
            elif target.region == "stack" and target.off in self._ptr_slots:
                self.regs[insn.dst] = self._ptr_slots[target.off]
            elif self._mem_checked(pc):
                self.regs[insn.dst] = self.read_u64(target)
            else:
                buf, addr = self._buffer_unchecked(target)
                self.regs[insn.dst] = int.from_bytes(buf[addr : addr + 8], "little")
            return pc + 1
        if isinstance(insn, Store):
            base = self.regs[insn.base]
            if not isinstance(base, Pointer):
                raise VmFault(f"store via non-pointer r{insn.base}")
            value = self._operand(insn.src)
            target = base + insn.off
            if isinstance(value, Pointer):
                if target.region != "stack":
                    raise VmFault("cannot store pointer into memory")
                if self._mem_checked(pc):
                    self._buffer_for(target)  # bounds check
                self._ptr_slots[target.off] = value
            else:
                if target.region == "stack":
                    self._ptr_slots.pop(target.off, None)
                if self._mem_checked(pc):
                    self.write_u64(target, value)
                else:
                    buf, addr = self._buffer_unchecked(target)
                    buf[addr : addr + 8] = (value & MASK64).to_bytes(8, "little")
            return pc + 1
        if isinstance(insn, Call):
            self._do_call(insn)
            return pc + 1
        if isinstance(insn, Jmp):
            return insn.target
        if isinstance(insn, JmpIf):
            return self._do_jmp_if(insn, pc)
        raise VmFault(f"unknown instruction {insn!r}")

    def _do_alu(self, insn: Alu, pc: int) -> None:
        dst = self.regs[insn.dst]
        src = self._operand(insn.src)
        if isinstance(dst, Pointer):
            if not isinstance(src, int):
                raise VmFault("pointer arithmetic with pointer operand")
            delta = src if insn.op == "add" else -src
            if insn.op not in ("add", "sub"):
                raise VmFault(f"invalid {insn.op} on pointer")
            self.regs[insn.dst] = dst + delta
            return
        if isinstance(src, Pointer):
            raise VmFault("scalar ALU with pointer operand")
        a, b = dst & MASK64, src & MASK64
        if insn.op == "add":
            out = a + b
        elif insn.op == "sub":
            out = a - b
        elif insn.op == "mul":
            out = a * b
        elif insn.op == "div":
            if pc in self._safe_div:
                self.stats.checks_elided += 1
            else:
                self.stats.checks_performed += 1
                self.stats.check_cycles += self.costs.div_check
                if b == 0:
                    raise VmFault("division by zero")
            out = a // b
        elif insn.op == "mod":
            if pc in self._safe_div:
                self.stats.checks_elided += 1
            else:
                self.stats.checks_performed += 1
                self.stats.check_cycles += self.costs.div_check
                if b == 0:
                    raise VmFault("modulo by zero")
            out = a % b
        elif insn.op == "and":
            out = a & b
        elif insn.op == "or":
            out = a | b
        elif insn.op == "xor":
            out = a ^ b
        elif insn.op == "lsh":
            out = a << (b & 63)
        elif insn.op == "rsh":
            out = a >> (b & 63)
        else:
            raise VmFault(f"unknown ALU op {insn.op!r}")
        self.regs[insn.dst] = out & MASK64

    def _do_call(self, insn: Call) -> None:
        meta = self.registry.get(insn.func)
        if meta is None:
            raise VmFault(f"call to unknown kfunc {insn.func!r}")
        if meta.impl is None:
            raise VmFault(f"kfunc {insn.func!r} has no implementation bound")
        args = [self.regs[R1 + i] for i in range(len(meta.args))]
        result = meta.impl(self, *args)
        for i in range(5):
            self.regs[R1 + i] = 0
        if meta.ret == RET_VOID:
            self.regs[R0] = 0
        elif meta.ret == RET_KPTR:
            if result is None or result == 0:
                self.regs[R0] = 0
            else:
                if not isinstance(result, Pointer):
                    raise VmFault(f"{insn.func}: kptr impl returned {result!r}")
                self.regs[R0] = result
        else:
            self.regs[R0] = int(result or 0) & MASK64

    def _do_jmp_if(self, insn: JmpIf, pc: int) -> int:
        lhs = self.regs[insn.lhs]
        rhs = self._operand(insn.rhs)
        if (
            isinstance(lhs, Pointer)
            and isinstance(rhs, Pointer)
            and lhs.region is rhs.region
        ):
            # Same-region pointer comparison (data vs data_end).
            lhs_val, rhs_val = lhs.off, rhs.off
        else:
            if isinstance(lhs, Pointer):
                # Verified programs only compare pointers against 0.
                lhs_val = 1
            else:
                lhs_val = lhs & MASK64
            if isinstance(rhs, Pointer):
                rhs_val = 1
            else:
                rhs_val = rhs & MASK64
        taken = {
            "eq": lhs_val == rhs_val,
            "ne": lhs_val != rhs_val,
            "lt": lhs_val < rhs_val,
            "le": lhs_val <= rhs_val,
            "gt": lhs_val > rhs_val,
            "ge": lhs_val >= rhs_val,
        }[insn.op]
        return insn.target if taken else pc + 1
