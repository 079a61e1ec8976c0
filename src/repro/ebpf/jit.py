"""Lower verified IR programs to generated Python source.

The interpreter (:mod:`repro.ebpf.vm`) pays per-instruction dispatch on
every packet: fetch, ``isinstance`` fan-out, operand decode, method
calls.  For a *verified* program all of that is static — the
instruction sequence, the kfunc bindings, which checks were proven
away, even loop trip counts.  :class:`_Compiler` burns those facts into
generated Python (``compile()`` + ``exec`` of synthesized source — no
per-instruction ``eval``), and :mod:`repro.ebpf.fuse` emits one or more
compiled programs, plus the batch loop around them, as one closure.
Like the kernel, which rewrites a verified program before it JITs it
(dead branches hard-wired, dead code removed, r1-r5 unreadable after
calls), the compiler emits only the work the proofs leave live:

- **Constant-trip loops** are unrolled using the verifier's
  ``loop_bounds`` proof, turning the hot loop body into straight-line
  code with forward-only control flow.
- **Structured blocks.**  A program with no back-edge left after
  unrolling is emitted as nested ``if``/``else`` in block order, with
  its exit blocks inlined at their branch sites and a constant r0
  folded into the verdict.  Only a program whose back-edge survives
  (an oversized or widened loop) keeps the ``_b`` dispatch loop, with
  the interpreter's step budget as its runaway guard.
- **Liveness-pruned registers.**  A backward liveness pass over the
  expanded CFG drops every side-effect-free definition nobody reads:
  the interpreter's register zeroing at entry and after a call (the
  verifier rejects reads of uninitialized registers), dead moves and
  loads, and a kfunc result's assignment (the call itself stays).
  ``r1``/``r10`` are bound only where the program reads them.
- **Folded packet bounds.**  A compare between a packet pointer at a
  known offset and ``data_end`` compares the offset against the frame
  size; two packet pointers at known offsets compare statically.
- **Stack-load forwarding.**  A load of a stack slot stored earlier in
  the same block with a known scalar reads that scalar; the store
  itself stays, so the stack bytes match the interpreter's.
- **Proven checks** (``safe_mem`` / ``safe_div``) disappear: the
  generated code reads buffers directly where the interpreter would
  branch through ``_mem_checked``.
- **Kfunc calls** bind ``meta.impl`` at compile time — a direct
  callable in the closure's globals, no registry lookup per call.
- **Cost accounting** is folded to per-block constants (``_steps += 7``)
  so :class:`~repro.ebpf.vm.VmStats` and every cycle charge stay
  **bit-identical** to the interpreter (asserted by the differential
  fuzzer).  The one documented divergence: a run that *faults* mid-block
  (impossible for verified programs under the bundled kfuncs) charges
  the whole block's steps where the interpreter charges only the
  executed prefix.

The unrolled CFG and a light abstract-type pass over it (int /
pointer-per-region / top) come from :mod:`repro.ebpf.cfg`, so the
common cases — packet loads at proven offsets, stack spills, scalar
ALU — compile to single Python statements; code whose types cannot be
pinned statically falls back to inlined generic sequences that mirror
the interpreter branch-for-branch, so parity never depends on the
specializer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple, Union,
)

from .cost_model import Category
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
)
from .cfg import (
    T_INT,
    T_TOP,
    _StackFwd,
    _expand_nodes,
    _infer_entry_types,
    _is_ptr,
    _Node,
    _reachability,
    _Resolver,
    _select_loops,
    _transfer,
)
from .kfunc_meta import KfuncRegistry, RET_KPTR, RET_VOID
from .vm import MASK64, Pointer, VmFault

_HEX_M = "0x%X" % MASK64

_PY_CMP = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}

#: ALU ops a packet-pure value may pass through (div/mod can fault).
_PURE_OPS = {
    "add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|", "xor": "^",
    "lsh": "<<", "rsh": ">>",
}


class JitError(Exception):
    """Compilation failed (malformed program or internal error)."""


def _jmp_taken(op: str, lhs: Any, rhs: Any) -> bool:
    """Generic comparison fallback; mirrors ``Vm._do_jmp_if`` exactly."""
    if (
        lhs.__class__ is Pointer
        and rhs.__class__ is Pointer
        and lhs.region is rhs.region
    ):
        lv, rv = lhs.off, rhs.off
    else:
        lv = 1 if lhs.__class__ is Pointer else lhs & MASK64
        rv = 1 if rhs.__class__ is Pointer else rhs & MASK64
    if op == "eq":
        return lv == rv
    if op == "ne":
        return lv != rv
    if op == "lt":
        return lv < rv
    if op == "le":
        return lv <= rv
    if op == "gt":
        return lv > rv
    return lv >= rv


# -- code generation ---------------------------------------------------------


class _Emitter:
    def __init__(self) -> None:
        self.lines: List[str] = []

    def emit(self, level: int, text: str) -> None:
        self.lines.append("    " * level + text)


def _imm_txt(v: int) -> str:
    return str(v & MASK64)


def _src_txt(src: Union[int, Imm]) -> str:
    if isinstance(src, Imm):
        return _imm_txt(src.value)
    return f"r{src}"


_ASSIGN = re.compile(r"^\s*r\d+ = (?!=)")
_REG = re.compile(r"\br(\d+)\b")


def _reads(lines: List[str]) -> FrozenSet[int]:
    """Registers the generated ``lines`` read: every ``rN`` token except
    the target of a plain ``rN = ...`` assignment."""
    out: Set[int] = set()
    for line in lines:
        out.update(int(m) for m in _REG.findall(_ASSIGN.sub("", line, 1)))
    return frozenset(out)


#: The XDP verdict that hands the packet to the next stage.  Any other
#: r0 is final (``enum xdp_action``: 2 == XDP_PASS).
PASS_VERDICT = 2

_INVERT = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt", "le": "gt", "gt": "le"}

#: Where a stage's fall-through paths meet: past its last line (and past
#: every label).
_EXIT = 1 << 62
#: Structured emission nests at most this deep below the stage (Python's
#: tokenizer caps indentation at 100 levels, and the packet loop sits
#: three deep); a deeper stage keeps the dispatch loop.  A fully
#: unrolled loop nests one level per copy (at most UNROLL_MAX_TRIPS + 1).
_MAX_NEST = 80

_RAISE_END = "raise _VmFault('fell off the end of the program')"
_RAISE_RUNAWAY = "raise _VmFault('step limit exceeded (runaway program)')"


class _Stmt:
    """One instruction's generated lines, with what liveness needs:
    the registers it defines and reads, whether it may be dropped when
    every def is dead (``pure``), and the lines that still run in that
    case when it may not (``dead``: a call whose result nobody reads).
    ``fwd`` marks a forwarded stack load; ``kept`` records whether the
    last backward step kept the statement."""

    __slots__ = (
        "lines", "defs", "pure", "dead", "uses", "dead_uses", "fwd", "kept"
    )

    def __init__(
        self,
        lines: List[str],
        defs: Tuple[int, ...] = (),
        pure: bool = False,
        dead: Optional[List[str]] = None,
        fwd: bool = False,
    ) -> None:
        self.lines = lines
        self.defs = frozenset(defs)
        self.pure = pure
        self.dead = dead
        self.uses = _reads(lines)
        self.dead_uses = _reads(dead) if dead is not None else None
        self.fwd = fwd
        self.kept = True

    def apply(self, live: Set[int]) -> Optional[List[str]]:
        """Step ``live`` backward over this statement; returns the lines
        to emit, or None when the statement is dropped."""
        self.kept = True
        if self.defs and live.isdisjoint(self.defs):
            if self.pure:
                self.kept = False
                return None
            if self.dead is not None:
                live |= self.dead_uses
                return self.dead
        live -= self.defs
        live |= self.uses
        return self.lines


@dataclass
class _Block:
    """One expanded CFG node, generated but not yet placed.

    ``term`` is ``("exit", const_r0_or_None, r0_is_int)``,
    ``("goto", target)`` or ``("br", cond, negated_cond, taken, fall)``;
    a target is a node label, the runaway label, or None (fell off the
    end of the program)."""

    label: int
    steps: int
    tallies: Dict[str, int]
    stmts: List[_Stmt]
    term: Tuple
    succs: Tuple[int, ...]
    term_uses: FrozenSet[int]
    lines: List[str] = field(default_factory=list)


class _Unstructured(Exception):
    """Structured emission gave up; the stage keeps the dispatch loop."""


class _Compiler:
    """Lowers one verified program to generated-Python source, as one
    stage of a closure that :mod:`repro.ebpf.fuse` assembles.

    ``sym_prefix`` keeps per-stage global names (``_P*``/``_kf*``)
    collision-free when several programs share one namespace; a kfunc
    impl that publishes a ``_fuse_inline`` codegen spec is expanded
    directly into the body.  The emitted stage appends a final verdict
    with ``_rapp`` and ``continue``\\ s the packet loop, or falls
    through to the next stage on ``PASS``.
    A surviving back-edge's runaway-step guard counts from ``_s0``, the
    ``_steps`` value at stage entry (``_steps`` accumulates across a
    whole fused batch).
    """

    def __init__(
        self,
        prog: Program,
        ann: Any,
        registry: KfuncRegistry,
        elide_checks: bool,
        sym_prefix: str,
    ) -> None:
        self.prog = prog
        self.ann = ann
        self.registry = registry
        self.elide = bool(elide_checks)
        self.sym_prefix = sym_prefix
        self.safe_mem = frozenset(ann.safe_mem) if self.elide else frozenset()
        self.safe_div = frozenset(ann.safe_div) if self.elide else frozenset()
        self.globals: Dict[str, Any] = {
            "_Ptr": Pointer,
            "_VmFault": VmFault,
            "_ifb": int.from_bytes,
            "_OTHER": Category.OTHER,
            "_FRAMEWORK": Category.FRAMEWORK,
            "_jcmp": _jmp_taken,
        }
        self._const_ptrs: Dict[Tuple[str, int], str] = {}
        self._kf_names: Dict[str, str] = {}
        self._bound: Dict[str, str] = {}
        #: Regions this program's stores may touch (conservative).
        self.writes: Set[str] = set()
        #: Whether any emitted back-edge needed the runaway guard.
        self.used_step_guard = False
        #: Whether the last emission kept the ``_b`` dispatch loop.
        self.dispatch = False
        #: kfunc call sites expanded inline.
        self.inlined_calls = 0
        #: Header load sites ``header_loads`` rewrote in the last
        #: emission (liveness may drop a rewritten load afterwards).
        self.forwarded_loads = 0
        #: Stack loads the last emission read from a known scalar and
        #: liveness kept.
        self.forwarded_stack_loads = 0
        #: Whether the last emission reads the packet buffer's bytes,
        #: or hands ``vm`` to a kfunc that may.
        self.reads_packet = False
        #: Hashes the last emission read from the prologue.
        self.hoisted_calls = 0
        #: Per register, while a block is emitted: the expression over
        #: ``_pp`` its value is, when it is *packet-pure* (built only
        #: from forwarded header loads, immediates and mov/ALU on pure
        #: registers), else None.
        self._pure: List[Optional[str]] = [None] * N_REGS
        self.max_steps = (
            ann.states_explored
            + getattr(ann, "states_pruned", 0)
            + getattr(ann, "widened_steps", 0)
            + len(prog)
            + 64
        )

    # -- shared helpers --------------------------------------------------

    def _const_ptr(self, region: str, off: int) -> str:
        name = self._const_ptrs.get((region, off))
        if name is None:
            name = f"_P{self.sym_prefix}{len(self._const_ptrs)}"
            self._const_ptrs[(region, off)] = name
            self.globals[name] = Pointer(region, off)
        return name

    def _kf(self, func: str) -> str:
        name = self._kf_names.get(func)
        if name is None:
            name = f"_kf{self.sym_prefix}{len(self._kf_names)}"
            self._kf_names[func] = name
            self.globals[name] = self.registry.get(func).impl
        return name

    def _bind(self, hint: str, value: Any) -> str:
        """Bind a specialization constant (steering table, PRNG method,
        sketch rows ...) into the closure's globals; inline-kfunc specs
        call this to burn configuration into the generated code."""
        name = self._bound.get(hint)
        if name is None:
            name = f"_c{self.sym_prefix}{hint}"
            self._bound[hint] = name
            self.globals[name] = value
        return name

    # -- top level -------------------------------------------------------

    def prepare(self) -> None:
        """CFG expansion, reachability, and type inference — everything
        :meth:`emit_stage` needs, separated so the fuser can emit
        several prepared programs into one function body."""
        prog, ann = self.prog, self.ann
        self._loops = _select_loops(prog, dict(ann.loop_bounds))
        self._nodes = _expand_nodes(prog, self._loops)
        self._res = _Resolver(self._nodes, self._loops)
        self._reachable, succs = _reachability(prog, self._nodes, self._res)
        self._entry_types = _infer_entry_types(
            prog, self.registry, self._nodes, self._res, self._reachable,
            succs,
        )

    def emit_stage(
        self,
        em: "_Emitter",
        level: int,
        header_loads: Dict[int, str],
        hoist: Callable[[str, int], str],
        last: bool,
    ) -> None:
        """Emit the prepared program as one stage of the packet loop.

        Assumes ``_steps``, the accounting accumulators, ``_rapp`` and
        the buffer bindings of the fuser's prologue are in scope.
        ``last`` says whether a ``PASS`` verdict is final (else it
        falls through to the code after the stage).  ``header_loads``
        maps a packet offset to the expression for the header field
        stored there: a check-elided u64 load at one of those constant
        offsets reads the expression instead of the packet buffer.
        ``hoist(key_expr, seed)`` names the prologue list whose
        ``[_i]`` is ``fast_hash32(key_expr, seed)`` for packet ``_i``
        of the batch.
        """
        self.header_loads = header_loads
        self.hoist = hoist
        self.last = last
        self.writes = set()
        self.used_step_guard = False
        self.inlined_calls = 0
        self.forwarded_loads = 0
        self.forwarded_stack_loads = 0
        self.reads_packet = False
        self.hoisted_calls = 0
        blocks = {
            lbl: self._gen_block(self._nodes[lbl], list(self._entry_types[lbl]))
            for lbl in sorted(self._reachable)
        }
        live = self._prune(blocks)
        # The interpreter starts every run with r1 = ctx, r10 = fp and
        # zeros elsewhere; only what the program reads is bound.
        for r in sorted(live):
            if r == R1:
                em.emit(level, "r1 = _CTXP")
            elif r == R10:
                em.emit(level, "r10 = _STKP")
            else:
                em.emit(level, f"r{r} = 0")
        self.dispatch = any(
            s <= b.label for b in blocks.values() for s in b.succs
        )
        if not self.dispatch:
            body = _Emitter()
            try:
                self._emit_structured(body, blocks, level)
            except _Unstructured:
                self.dispatch = True
            else:
                em.lines.extend(body.lines)
                return
        self._emit_dispatch_loop(em, blocks, level)

    # -- block generation --------------------------------------------------

    def _target(self, nd: _Node, target_pc: int) -> Optional[int]:
        if target_pc >= len(self.prog):
            return None
        return self._res.resolve(target_pc, nd.ckey)

    def _gen_block(self, nd: _Node, types: List[Any]) -> _Block:
        """Generate one node's statements, tallies and terminator."""
        prog = self.prog
        tallies = {"eli": 0, "mem": 0, "div": 0}
        stmts: List[_Stmt] = []
        steps = 0
        # Block entry: no register is known packet-pure or constant,
        # and no stack slot is forwarded.
        self._pure = [None] * N_REGS
        fwd = _StackFwd()
        consts: Dict[int, int] = {}
        last = prog[nd.end - 1]
        for pc in range(nd.start, nd.end):
            insn = prog[pc]
            if isinstance(insn, (Exit, Jmp, JmpIf)):
                break
            steps += 1
            src = fwd.source(insn, types)
            stmts.extend(self._gen_insn(pc, insn, types, tallies, src))
            fwd.step(insn, types)
            _transfer(types, insn, self.registry, src is not None)
            if isinstance(insn, Mov) and isinstance(insn.src, Imm):
                consts[insn.dst] = insn.src.value & MASK64
            elif isinstance(insn, Mov) and insn.src in consts:
                consts[insn.dst] = consts[insn.src]
            elif src is not None and not src.startswith("r"):
                consts[insn.dst] = int(src)
            elif isinstance(insn, (Mov, Alu, Load)):
                consts.pop(insn.dst, None)
            elif isinstance(insn, Call):
                for r in range(R0, R1 + 5):
                    consts.pop(r, None)
        uses: FrozenSet[int] = frozenset()
        targets: Tuple[Optional[int], ...] = ()
        if isinstance(last, Exit):
            const = consts.get(R0)
            term: Tuple = ("exit", const, types[R0] == T_INT)
            if const is None:
                uses = frozenset((R0,))
        else:
            if isinstance(last, JmpIf):
                term = self._branch(nd, nd.end - 1, last, types)
            else:
                target = last.target if isinstance(last, Jmp) else nd.end
                term = ("goto", self._target(nd, target))
            if isinstance(last, (Jmp, JmpIf)):
                steps += 1
            if term[0] == "br":
                uses = _reads([term[1]])
                targets = term[3:]
            else:
                targets = term[1:]
        succs = tuple(
            t for t in targets
            if t is not None and t != self._res.runaway_label
        )
        return _Block(nd.label, steps, tallies, stmts, term, succs, uses)

    def _gen_insn(
        self,
        pc: int,
        insn,
        types: List[Any],
        tallies: Dict[str, int],
        fwd_src: Optional[str],
    ) -> List[_Stmt]:
        pure = self._pure
        em = _Emitter()
        if isinstance(insn, Mov):
            if isinstance(insn.src, Imm):
                pure[insn.dst] = _imm_txt(insn.src.value)
                em.emit(0, f"r{insn.dst} = {pure[insn.dst]}")
            else:
                pure[insn.dst] = pure[insn.src]
                em.emit(0, f"r{insn.dst} = r{insn.src}")
            return [_Stmt(em.lines, (insn.dst,), pure=True)]
        if isinstance(insn, Alu):
            pure[insn.dst] = self._pure_alu(insn, types)
            ok = self._emit_alu(em, pc, insn, types, tallies)
            return [_Stmt(em.lines, (insn.dst,), pure=ok)]
        if isinstance(insn, Load):
            if fwd_src is not None:
                # The slot holds a scalar stored earlier in this block:
                # the load's check is still tallied, the read is gone.
                # A stack load stays packet-impure, as unforwarded.
                tallies["eli" if pc in self.safe_mem else "mem"] += 1
                pure[insn.dst] = None
                return [_Stmt(
                    [f"r{insn.dst} = {fwd_src}"], (insn.dst,), pure=True,
                    fwd=True,
                )]
            pure[insn.dst] = None  # a forwarded header load sets it again
            ok = self._emit_load(em, pc, insn, types, tallies)
            return [_Stmt(em.lines, (insn.dst,), pure=ok)]
        if isinstance(insn, Store):
            self._emit_store(em, pc, insn, types, tallies)
            return [_Stmt(em.lines)]
        if isinstance(insn, Call):
            out = self._emit_call(insn)
            pure[R0:R1 + 5] = [None] * (R1 + 5 - R0)
            return out
        raise JitError(f"unexpected mid-block instruction {insn!r}")

    # -- liveness ----------------------------------------------------------

    def _prune(self, blocks: Dict[int, _Block]) -> FrozenSet[int]:
        """Backward liveness over the expanded CFG; fills each block's
        ``lines`` with the statements that survive and returns the
        registers live at program entry.

        Starting from nothing live and iterating up to the least
        fixpoint also drops a register that only feeds itself around a
        loop."""
        live_in = {lbl: frozenset() for lbl in blocks}
        order = sorted(blocks, reverse=True)
        changed = True
        while changed:
            changed = False
            for lbl in order:
                b = blocks[lbl]
                live = set(b.term_uses)
                for s in b.succs:
                    live |= live_in[s]
                lines: List[List[str]] = []
                for st in reversed(b.stmts):
                    kept = st.apply(live)
                    if kept is not None:
                        lines.append(kept)
                b.lines = [ln for kept in reversed(lines) for ln in kept]
                if live != live_in[lbl]:
                    live_in[lbl] = frozenset(live)
                    changed = True
        # The last pass stepped every statement at the fixpoint.
        self.forwarded_stack_loads = sum(
            st.fwd and st.kept for b in blocks.values() for st in b.stmts
        )
        return live_in[0]

    def _emit_body(self, em: _Emitter, b: _Block, level: int) -> None:
        """A block's folded accounting constants, then its live lines."""
        if b.steps:
            em.emit(level, f"_steps += {b.steps}")
        for name in ("eli", "mem", "div"):
            if b.tallies[name]:
                em.emit(level, f"_{name} += {b.tallies[name]}")
        for line in b.lines:
            em.emit(level, line)

    def _verdict(self, b: _Block) -> str:
        _, const, r0_int = b.term
        if const is not None:
            return str(const)
        return "r0" if r0_int else f"r0 & {_HEX_M}"

    # -- structured emission -------------------------------------------------

    def _emit_structured(
        self, em: _Emitter, blocks: Dict[int, _Block], level: int
    ) -> None:
        """Emit an acyclic stage as nested ``if``/``else`` in block
        order, from the entry to the stage's end.

        A path *leaves* the stage at a final verdict (``_rapp(K);
        continue``) or a raise; a ``PASS`` in a non-final stage instead
        falls through, past the stage's last line.  Each branch's arms
        run to its join: the first node every path through it reaches
        unless it leaves (its post-dominator once leaving paths are
        cut).  Emission then continues at the join, at the same level.
        An arm that always leaves is a bare ``if`` and the other arm
        follows flat, so exit blocks are inlined at their branch sites.
        A branch whose arms only meet past a fall-through joins at the
        stage's end: both arms carry the code to it.  Past a size or
        nesting budget the stage gives up (:class:`_Unstructured`)."""
        self._blocks = blocks
        self._budget = 4 * len(blocks) + 16
        self._max_level = level + _MAX_NEST
        leaves: Dict[Optional[int], bool] = {
            None: True, self._res.runaway_label: True
        }
        ipdom: Dict[int, int] = {}
        for lbl in sorted(blocks, reverse=True):
            b = blocks[lbl]
            kind = b.term[0]
            if kind == "exit":
                leaves[lbl] = not self._falls_through(b)
                ipdom[lbl] = _EXIT
            elif kind == "goto":
                leaves[lbl] = leaves[b.term[1]]
                ipdom[lbl] = b.term[1]
            else:
                t, f = b.term[3:]
                leaves[lbl] = leaves[t] and leaves[f]
                if leaves[t] or leaves[f]:
                    ipdom[lbl] = f if leaves[t] else t
                    continue
                while t != f:
                    if t < f:
                        t = ipdom[t]
                    else:
                        f = ipdom[f]
                ipdom[lbl] = t
        self._ipdom = ipdom
        self._region(em, 0, _EXIT, True, level)

    def _falls_through(self, b: _Block) -> bool:
        return (
            not self.last
            and b.term[0] == "exit"
            and b.term[1] in (None, PASS_VERDICT)
        )

    def _open(self, x: Optional[int], stop: int) -> bool:
        """Whether some path from ``x`` reaches ``stop`` or falls
        through a verdict, instead of leaving the stage."""
        seen: Set[int] = set()
        work = [x]
        while work:
            y = work.pop()
            if y == stop:
                return True
            if y is None or y == self._res.runaway_label or y in seen:
                continue
            seen.add(y)
            b = self._blocks[y]
            if self._falls_through(b):
                return True
            work.extend(b.succs)
        return False

    def _region(
        self, em: _Emitter, lbl: Optional[int], stop: int, tail: bool,
        level: int,
    ) -> None:
        """Emit from node ``lbl`` until control reaches ``stop``.
        ``tail``: nothing follows the region in the stage."""
        while lbl != stop:
            if lbl is None:
                em.emit(level, _RAISE_END)
                return
            if lbl == self._res.runaway_label:
                em.emit(level, _RAISE_RUNAWAY)
                return
            self._budget -= 1
            if self._budget < 0 or level > self._max_level:
                raise _Unstructured()
            b = self._blocks[lbl]
            self._emit_body(em, b, level)
            kind = b.term[0]
            if kind == "exit":
                self._emit_exit(em, b, tail, level)
                return
            if kind == "goto":
                lbl = b.term[1]
                continue
            _, cond, ncond, t, f = b.term
            join = self._ipdom[lbl]
            # An arm that always leaves is a bare ``if``; the other
            # arm's code follows it, so it is not the tail.
            if not self._open(t, join):
                self._emit_arm(em, cond, t, join, False, level)
                lbl = f
                continue
            if not self._open(f, join):
                self._emit_arm(em, ncond, f, join, False, level)
                lbl = t
                continue
            arm_tail = tail and join == _EXIT
            if t == join:
                if f != join:
                    self._emit_arm(em, ncond, f, join, arm_tail, level)
            elif f == join:
                self._emit_arm(em, cond, t, join, arm_tail, level)
            else:
                self._emit_arm(em, cond, t, join, arm_tail, level)
                em.emit(level, "else:")
                self._emit_nested(em, f, join, arm_tail, level + 1)
            if join == _EXIT:
                return
            lbl = join

    def _emit_arm(
        self, em: _Emitter, cond: str, lbl: Optional[int], stop: int,
        tail: bool, level: int,
    ) -> None:
        em.emit(level, f"if {cond}:")
        self._emit_nested(em, lbl, stop, tail, level + 1)

    def _emit_nested(
        self, em: _Emitter, lbl: Optional[int], stop: int, tail: bool,
        level: int,
    ) -> None:
        n = len(em.lines)
        self._region(em, lbl, stop, tail, level)
        if len(em.lines) == n:
            em.emit(level, "pass")

    def _emit_exit(
        self, em: _Emitter, b: _Block, tail: bool, level: int
    ) -> None:
        const = b.term[1]
        if self.last or (const is not None and const != PASS_VERDICT):
            em.emit(level, f"_rapp({self._verdict(b)})")
            if not (self.last and tail):
                em.emit(level, "continue")
            return
        if not tail:
            raise _Unstructured()
        if const is None:
            # PASS falls through to the next stage; anything else is final.
            v = self._verdict(b)
            if v != "r0":
                em.emit(level, f"_rr = {v}")
                v = "_rr"
            em.emit(level, f"if {v} != {PASS_VERDICT}:")
            em.emit(level + 1, f"_rapp({v})")
            em.emit(level + 1, "continue")

    # -- dispatch-loop emission ---------------------------------------------

    def _emit_dispatch_loop(
        self, em: _Emitter, blocks: Dict[int, _Block], level: int
    ) -> None:
        """A stage with a surviving back-edge: one ``if _b == K:`` arm
        per block inside ``while True``; forward control flow falls
        through the guards, back-edges ``continue`` past the step
        budget check."""
        loop = _Emitter()
        loop.emit(level, "_b = 0")
        loop.emit(level, "while True:")
        for lbl in sorted(blocks):
            b = blocks[lbl]
            loop.emit(level + 1, f"if _b == {lbl}:")
            self._emit_body(loop, b, level + 2)
            for line in self._dispatch_term(b):
                loop.emit(level + 2, line)
        if self._res.runaway_used:
            loop.emit(level + 1, f"if _b == {self._res.runaway_label}:")
            loop.emit(level + 2, _RAISE_RUNAWAY)
        loop.emit(level + 1, _RAISE_END)
        if self.used_step_guard:
            em.emit(level, "_s0 = _steps")
        em.lines.extend(loop.lines)
        if self.last:
            em.emit(level, "_rapp(_rr)")
        else:
            em.emit(level, f"if _rr != {PASS_VERDICT}:")
            em.emit(level + 1, "_rapp(_rr)")
            em.emit(level + 1, "continue")

    def _dispatch_term(self, b: _Block) -> List[str]:
        kind = b.term[0]
        if kind == "exit":
            return [f"_rr = {self._verdict(b)}", "break"]
        if kind == "goto":
            return self._goto_label(b.label, b.term[1])
        _, cond, _, t, f = b.term
        taken = self._goto_label(b.label, t)
        fall = self._goto_label(b.label, f)
        if (
            len(taken) == 1 and len(fall) == 1
            and taken[0].startswith("_b = ") and fall[0].startswith("_b = ")
        ):
            # Both forward: single conditional dispatch assignment.
            return [f"_b = {taken[0][5:]} if ({cond}) else {fall[0][5:]}"]
        out = [f"if {cond}:"]
        out.extend("    " + line for line in taken)
        out.append("else:")
        out.extend("    " + line for line in fall)
        return out

    def _goto_label(self, label: int, lbl: Optional[int]) -> List[str]:
        if lbl is None:
            return [_RAISE_END]
        if lbl <= label:
            self.used_step_guard = True
            return [
                f"_b = {lbl}",
                f"if _steps - _s0 > {self.max_steps}:",
                "    " + _RAISE_RUNAWAY,
                "continue",
            ]
        return [f"_b = {lbl}"]

    # -- branches --------------------------------------------------------

    def _branch(
        self, nd: _Node, pc: int, insn: JmpIf, types: List[Any]
    ) -> Tuple:
        taken = self._target(nd, insn.target)
        fall = self._target(nd, pc + 1)
        lt = types[insn.lhs]
        rhs_imm = insn.rhs.value & MASK64 if isinstance(insn.rhs, Imm) else None
        rt = T_INT if rhs_imm is not None else types[insn.rhs]
        lhs, rhs = f"r{insn.lhs}", _src_txt(insn.rhs)
        static: Optional[bool] = None
        cond: Callable[[str], str]

        def region(t):
            return "pkt" if t[1] == "pktend" else t[1]

        if lt == T_INT and rt == T_INT:
            cond = lambda op: f"{lhs} {_PY_CMP[op]} {rhs}"
        elif _is_ptr(lt) and _is_ptr(rt) and region(lt) == region(rt):
            known = lt[2] is not None and rt[2] is not None
            if known and lt[1] == rt[1]:
                static = _jmp_taken(insn.op, lt[2], rt[2])
            elif known and lt[1] == "pkt":
                # data + K <op> data_end + D, with data_end == data + _n.
                k = lt[2] - rt[2]
                cond = lambda op: f"{k} {_PY_CMP[op]} _n"
            elif known:
                k = rt[2] - lt[2]
                cond = lambda op: f"_n {_PY_CMP[op]} {k}"
            else:
                cond = lambda op: f"{lhs}.off {_PY_CMP[op]} {rhs}.off"
        elif _is_ptr(lt) and rhs_imm is not None:
            # Pointer vs immediate: the interpreter compares 1 <op> imm.
            static = _jmp_taken(insn.op, Pointer("x"), rhs_imm)
        elif lt == T_TOP and rhs_imm == 0 and insn.op in ("eq", "ne"):
            cond = {
                "eq": f"{lhs}.__class__ is not _Ptr and {lhs} == 0",
                "ne": f"{lhs}.__class__ is _Ptr or {lhs} != 0",
            }.__getitem__
        else:
            cond = lambda op: f"_jcmp('{op}', {lhs}, {rhs})"

        if static is not None:
            return ("goto", taken if static else fall)
        return ("br", cond(insn.op), cond(_INVERT[insn.op]), taken, fall)

    # -- packet purity ----------------------------------------------------

    def _pure_alu(self, insn: Alu, types: List[Any]) -> Optional[str]:
        """The expression ``insn`` leaves in its destination, if both
        operands are packet-pure; mirrors :meth:`_emit_alu` exactly.
        Division and modulo can fault, so they are never pure."""
        a = self._pure[insn.dst]
        if isinstance(insn.src, Imm):
            b: Optional[str] = _imm_txt(insn.src.value)
        else:
            b = self._pure[insn.src]
        sym = _PURE_OPS.get(insn.op)
        if a is None or b is None or sym is None or types[insn.dst] != T_INT:
            return None
        if insn.op in ("lsh", "rsh"):
            b = f"({b}) & 63"
        expr = f"({a}) {sym} ({b})"
        if insn.op in ("add", "sub", "mul", "lsh"):
            return f"({expr}) & {_HEX_M}"
        return expr

    def _hashed(self, arg: int, seed: int) -> Optional[str]:
        """For an inline spec: the prologue list holding
        ``fast_hash32(arg_<arg>, seed)`` per packet, or None when that
        argument is not packet-pure here (the spec then hashes it
        itself)."""
        key = self._pure[R1 + arg]
        if key is None:
            return None
        self.hoisted_calls += 1
        return self.hoist(key, seed)

    # -- ALU --------------------------------------------------------------

    def _emit_alu(
        self,
        em: _Emitter,
        pc: int,
        insn: Alu,
        types: List[Any],
        tallies: Dict[str, int],
    ) -> bool:
        """Emit one ALU op; returns whether the code cannot fault."""
        d = insn.dst
        t = types[d]
        s = _src_txt(insn.src)
        op = insn.op
        if _is_ptr(t):
            sign = "+" if op == "add" else "-"
            if isinstance(insn.src, Imm) and t[2] is not None:
                delta = insn.src.value & MASK64
                off = t[2] + delta if op == "add" else t[2] - delta
                if t[1] == "pktend":
                    em.emit(0, f"r{d} = _Ptr(r{d}.region, r{d}.off {sign} {s})")
                else:
                    em.emit(0, f"r{d} = {self._const_ptr(t[1], off)}")
            elif t[1] != "pktend" and t[2] is not None:
                em.emit(0, f"r{d} = _Ptr('{t[1]}', {t[2]} {sign} {s})")
            else:
                em.emit(0, f"r{d} = _Ptr(r{d}.region, r{d}.off {sign} {s})")
            return True
        if t == T_TOP and op in ("add", "sub"):
            sign = "+" if op == "add" else "-"
            em.emit(0, f"if r{d}.__class__ is _Ptr:")
            em.emit(1, f"r{d} = _Ptr(r{d}.region, r{d}.off {sign} {s})")
            em.emit(0, "else:")
            em.emit(1, f"r{d} = (r{d} {sign} {s}) & {_HEX_M}")
            return True
        if op in ("div", "mod"):
            pyop = "//" if op == "div" else "%"
            word = "division" if op == "div" else "modulo"
            checked = False
            if pc in self.safe_div:
                tallies["eli"] += 1
            else:
                tallies["div"] += 1
                if isinstance(insn.src, Imm):
                    if insn.src.value & MASK64 == 0:
                        em.emit(0, f"raise _VmFault('{word} by zero')")
                        return False
                else:
                    checked = True
                    em.emit(0, f"if {s} == 0:")
                    em.emit(1, f"raise _VmFault('{word} by zero')")
            em.emit(0, f"r{d} {pyop}= {s}")
            return not checked
        if op == "add":
            em.emit(0, f"r{d} = (r{d} + {s}) & {_HEX_M}")
        elif op == "sub":
            em.emit(0, f"r{d} = (r{d} - {s}) & {_HEX_M}")
        elif op == "mul":
            em.emit(0, f"r{d} = (r{d} * {s}) & {_HEX_M}")
        elif op == "and":
            em.emit(0, f"r{d} &= {s}")
        elif op == "or":
            em.emit(0, f"r{d} |= {s}")
        elif op == "xor":
            em.emit(0, f"r{d} ^= {s}")
        elif op == "lsh":
            if isinstance(insn.src, Imm):
                em.emit(0, f"r{d} = (r{d} << {insn.src.value & 63}) & {_HEX_M}")
            else:
                em.emit(0, f"r{d} = (r{d} << ({s} & 63)) & {_HEX_M}")
        elif op == "rsh":
            if isinstance(insn.src, Imm):
                em.emit(0, f"r{d} >>= {insn.src.value & 63}")
            else:
                em.emit(0, f"r{d} >>= ({s} & 63)")
        else:  # pragma: no cover - Alu validates ops
            raise JitError(f"unknown ALU op {op!r}")
        return True

    # -- memory -----------------------------------------------------------

    def _addr_txt(self, base: int, bt, off: int) -> Tuple[str, Optional[int]]:
        """(expression for target offset, folded constant or None)."""
        if _is_ptr(bt) and bt[2] is not None and bt[1] != "pktend":
            return str(bt[2] + off), bt[2] + off
        if off == 0:
            return f"r{base}.off", None
        return f"r{base}.off + {off}", None

    def _emit_load(
        self,
        em: _Emitter,
        pc: int,
        insn: Load,
        types: List[Any],
        tallies: Dict[str, int],
    ) -> bool:
        """Emit one load; returns whether the code cannot fault and
        tallies no check at run time (so a dead one may go)."""
        bt = types[insn.base]
        d = insn.dst
        elided = pc in self.safe_mem
        if bt == T_INT:
            em.emit(0, f"raise _VmFault('load via non-pointer r{insn.base}')")
            return False
        if _is_ptr(bt) and bt[1] == "ctx" and bt[2] is not None:
            addr = bt[2] + insn.off
            if addr == 0:
                em.emit(0, f"r{d} = _PKT0")
            elif addr == 8:
                em.emit(0, f"r{d} = _PKTEND")
            elif elided:
                tallies["eli"] += 1
                em.emit(0, f"r{d} = _ifb(_ctx[{addr}:{addr + 8}], 'little')")
            else:
                tallies["mem"] += 1
                em.emit(0, f"r{d} = _rd(_Ptr('ctx', {addr}))")
                return False
            return True
        if _is_ptr(bt) and bt[1] == "pkt":
            a_txt, a_const = self._addr_txt(insn.base, bt, insn.off)
            if elided:
                tallies["eli"] += 1
                fwd = self.header_loads.get(a_const)
                if fwd is not None:
                    self.forwarded_loads += 1
                    self._pure[d] = fwd
                    em.emit(0, f"r{d} = {fwd}")
                    return True
                self.reads_packet = True
                if a_const is not None:
                    em.emit(
                        0,
                        f"r{d} = _ifb(_pkt[{a_const}:{a_const + 8}], 'little')",
                    )
                else:
                    em.emit(0, f"_t = {a_txt}")
                    em.emit(0, f"r{d} = _ifb(_pkt[_t:_t + 8], 'little')")
                return True
            tallies["mem"] += 1
            self.reads_packet = True
            em.emit(0, f"r{d} = _rd(_Ptr('pkt', {a_txt}))")
            return False
        if _is_ptr(bt) and bt[1] == "stack":
            a_txt, a_const = self._addr_txt(insn.base, bt, insn.off)
            if a_const is not None:
                t = str(a_const)
            else:
                em.emit(0, f"_t = {a_txt}")
                t = "_t"
            em.emit(0, f"_p = _slots.get({t})")
            em.emit(0, "if _p is not None:")
            em.emit(1, f"r{d} = _p")
            em.emit(0, "else:")
            if elided:
                em.emit(1, "_eli += 1")
                if a_const is not None:
                    lo = 512 + a_const
                    em.emit(1, f"r{d} = _ifb(_stack[{lo}:{lo + 8}], 'little')")
                else:
                    em.emit(
                        1, f"r{d} = _ifb(_stack[512 + _t:520 + _t], 'little')"
                    )
            else:
                em.emit(1, "_mem += 1")
                em.emit(1, f"r{d} = _rd(_Ptr('stack', {t}))")
            return False
        # Generic: unknown base (spilled/kptr/ctx-at-unknown-offset).
        self.reads_packet = True
        em.emit(0, f"_bp = r{insn.base}")
        if insn.off:
            em.emit(0, f"_t = _bp.off + {insn.off}")
        else:
            em.emit(0, "_t = _bp.off")
        em.emit(0, "_rg = _bp.region")
        em.emit(0, "if _rg == 'ctx' and _t == 0:")
        em.emit(1, f"r{d} = _PKT0")
        em.emit(0, "elif _rg == 'ctx' and _t == 8:")
        em.emit(1, f"r{d} = _PKTEND")
        em.emit(0, "elif _rg == 'stack' and _t in _slots:")
        em.emit(1, f"r{d} = _slots[_t]")
        em.emit(0, "else:")
        if elided:
            em.emit(1, "_eli += 1")
            em.emit(1, "_buf, _a = _bu(_Ptr(_rg, _t))")
            em.emit(1, f"r{d} = _ifb(_buf[_a:_a + 8], 'little')")
        else:
            em.emit(1, "_mem += 1")
            em.emit(1, f"r{d} = _rd(_Ptr(_rg, _t))")
        return False

    def _emit_store(
        self,
        em: _Emitter,
        pc: int,
        insn: Store,
        types: List[Any],
        tallies: Dict[str, int],
    ) -> None:
        bt = types[insn.base]
        elided = pc in self.safe_mem
        if isinstance(insn.src, Imm):
            st: Any = T_INT
            v = insn.src.value & MASK64
            v_txt: str = str(v)
            v_bytes: Optional[bytes] = v.to_bytes(8, "little")
        else:
            st = types[insn.src]
            v_txt = f"r{insn.src}"
            v_bytes = None
        if bt == T_INT:
            em.emit(0, f"raise _VmFault('store via non-pointer r{insn.base}')")
            return
        if _is_ptr(bt) and bt[1] in ("pkt", "ctx", "stack"):
            self.writes.add(bt[1])
        else:
            # Unknown base region: may write any buffer.
            self.writes.update(("pkt", "ctx", "stack"))

        if _is_ptr(bt) and bt[1] == "stack" and st == T_INT:
            a_txt, a_const = self._addr_txt(insn.base, bt, insn.off)
            if a_const is not None:
                t = str(a_const)
            else:
                em.emit(0, f"_t = {a_txt}")
                t = "_t"
            em.emit(0, f"_slots.pop({t}, None)")
            if elided:
                tallies["eli"] += 1
                lo = f"512 + {t}" if a_const is None else str(512 + a_const)
                hi = f"520 + {t}" if a_const is None else str(520 + a_const)
                if v_bytes is not None:
                    em.emit(0, f"_stack[{lo}:{hi}] = {v_bytes!r}")
                else:
                    em.emit(
                        0, f"_stack[{lo}:{hi}] = {v_txt}.to_bytes(8, 'little')"
                    )
            else:
                tallies["mem"] += 1
                em.emit(0, f"_wr(_Ptr('stack', {t}), {v_txt})")
            return
        if _is_ptr(bt) and bt[1] == "stack" and _is_ptr(st):
            a_txt, a_const = self._addr_txt(insn.base, bt, insn.off)
            t = str(a_const) if a_const is not None else a_txt
            if elided:
                tallies["eli"] += 1
            else:
                tallies["mem"] += 1
                em.emit(0, f"_bf(_Ptr('stack', {t}))")
            em.emit(0, f"_slots[{t}] = {v_txt}")
            return
        if _is_ptr(bt) and bt[1] in ("pkt", "ctx") and st == T_INT:
            a_txt, a_const = self._addr_txt(insn.base, bt, insn.off)
            buf = "_pkt" if bt[1] == "pkt" else "_ctx"
            if elided:
                tallies["eli"] += 1
                if a_const is not None:
                    rhs = (
                        repr(v_bytes)
                        if v_bytes is not None
                        else f"{v_txt}.to_bytes(8, 'little')"
                    )
                    em.emit(
                        0, f"{buf}[{a_const}:{a_const + 8}] = {rhs}"
                    )
                else:
                    em.emit(0, f"_t = {a_txt}")
                    rhs = (
                        repr(v_bytes)
                        if v_bytes is not None
                        else f"{v_txt}.to_bytes(8, 'little')"
                    )
                    em.emit(0, f"{buf}[_t:_t + 8] = {rhs}")
            else:
                tallies["mem"] += 1
                em.emit(0, f"_wr(_Ptr('{bt[1]}', {a_txt}), {v_txt})")
            return
        # Generic store: unknown base region and/or maybe-pointer value.
        em.emit(0, f"_bp = r{insn.base}")
        if insn.off:
            em.emit(0, f"_t = _bp.off + {insn.off}")
        else:
            em.emit(0, "_t = _bp.off")
        em.emit(0, "_rg = _bp.region")
        em.emit(0, f"_v = {v_txt}")
        maybe_ptr = st == T_TOP or _is_ptr(st)
        if elided:
            tallies["eli"] += 1
        else:
            tallies["mem"] += 1
        if maybe_ptr:
            em.emit(0, "if _v.__class__ is _Ptr:")
            em.emit(1, "if _rg != 'stack':")
            em.emit(2, "raise _VmFault('cannot store pointer into memory')")
            if not elided:
                em.emit(1, "_bf(_Ptr('stack', _t))")
            em.emit(1, "_slots[_t] = _v")
            em.emit(0, "else:")
            base = 1
        else:
            base = 0
        em.emit(base, "if _rg == 'stack':")
        em.emit(base + 1, "_slots.pop(_t, None)")
        if elided:
            em.emit(base, "_buf, _a = _bu(_Ptr(_rg, _t))")
            em.emit(
                base,
                f"_buf[_a:_a + 8] = (_v & {_HEX_M}).to_bytes(8, 'little')",
            )
        else:
            em.emit(base, "_wr(_Ptr(_rg, _t), _v)")

    # -- calls -------------------------------------------------------------

    def _emit_call(self, insn: Call) -> List[_Stmt]:
        """The call (kept even when its result is dead), then the
        interpreter's r1-r5 clobber as one droppable zero per register:
        the verifier rejects reading them, so liveness drops them all
        unless the CFG holds a path it proved infeasible."""
        meta = self.registry.get(insn.func)
        if meta is None:
            return [_Stmt(
                [f"raise _VmFault('call to unknown kfunc {insn.func!r}')"]
            )]
        if meta.impl is None:
            return [_Stmt([
                f"raise _VmFault("
                f"\"kfunc '{insn.func}' has no implementation bound\")"
            ])]
        spec = getattr(meta.impl, "_fuse_inline", None)
        if spec is not None:
            # Small-body kfunc inlined at the call site: the spec emits
            # setup lines plus an int expression over the argument
            # registers, with constants bound via ``self._bind`` —
            # burning map dimensions and steering tables into the code —
            # and packet-pure hashes read from the prologue via
            # ``self._hashed``.  Only valid for RET_SCALAR impls whose
            # expression equals ``int(impl(...)) & MASK64`` bit for bit.
            # The expression may have effects, so a dead result still
            # evaluates it.
            arg_names = [f"r{R1 + i}" for i in range(len(meta.args))]
            setup, expr = spec(arg_names, self._bind, self._hashed)
            self.inlined_calls += 1
            call = _Stmt(
                list(setup) + [f"r0 = ({expr}) & {_HEX_M}"],
                (R0,),
                dead=list(setup) + [expr],
            )
        else:
            args = "".join(f", r{R1 + i}" for i in range(len(meta.args)))
            self.reads_packet = True
            fn = f"{self._kf(insn.func)}(vm{args})"
            if meta.ret == RET_VOID:
                call = _Stmt([fn, "r0 = 0"], (R0,), dead=[fn])
            elif meta.ret == RET_KPTR:
                call = _Stmt([
                    f"_res = {fn}",
                    "if _res is None or _res == 0:",
                    "    r0 = 0",
                    "elif _res.__class__ is not _Ptr:",
                    f"    raise _VmFault('{insn.func}: kptr impl returned '"
                    " + repr(_res))",
                    "else:",
                    "    r0 = _res",
                ], (R0,))
            else:
                call = _Stmt(
                    [f"_res = {fn}", f"r0 = int(_res or 0) & {_HEX_M}"],
                    (R0,),
                    dead=[fn],
                )
        return [call] + [
            _Stmt([f"r{i} = 0"], (i,), pure=True) for i in range(R1, R1 + 5)
        ]
