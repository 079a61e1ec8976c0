"""Lower verified IR programs to straight-line Python source.

The interpreter (:mod:`repro.ebpf.vm`) pays per-instruction dispatch on
every packet: fetch, ``isinstance`` fan-out, operand decode, method
calls.  For a *verified* program all of that is static — the
instruction sequence, the kfunc bindings, which checks were proven
away, even loop trip counts.  :class:`_Compiler` burns those facts into
generated Python (``compile()`` + ``exec`` of synthesized source — no
per-instruction ``eval``), and :mod:`repro.ebpf.fuse` emits one or more
compiled programs, plus the batch loop around them, as one closure:

- **Basic blocks** become a flat ``while True:`` guard chain; forward
  control flow falls through integer guards, only genuine back-edges
  re-enter the dispatch loop.
- **Constant-trip loops** are unrolled using the verifier's
  ``loop_bounds`` proof, turning the hot loop body into straight-line
  code with forward-only control flow.
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

A light abstract-type pass (int / pointer-per-region / top) runs over
the unrolled CFG so the common cases — packet loads at proven offsets,
stack spills, scalar ALU — compile to single Python statements; code
whose types cannot be pinned statically falls back to inlined generic
sequences that mirror the interpreter branch-for-branch, so parity
never depends on the specializer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from .cost_model import Category
from .disasm import disassemble_one
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
from .kfunc_meta import KfuncRegistry, RET_KPTR, RET_VOID
from .vm import MASK64, Pointer, VmFault

#: Loops whose proven trip count exceeds this run un-unrolled (dispatch
#: loop with a real back-edge) — still compiled, just not flattened.
UNROLL_MAX_TRIPS = 64
#: Cap on ``body_insns * copies`` per loop, bounding generated code size.
UNROLL_INSN_BUDGET = 4096

_HEX_M = "0x%X" % MASK64

# -- abstract types for the specializer -------------------------------------
# "i"            definitely an int (always masked to 64 bits)
# ("p", region, off)  definitely a Pointer into `region`; `off` is the
#                statically known byte offset or None
# "t"            top: int or Pointer (generic code emitted)
T_INT = "i"
T_TOP = "t"

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


def program_hash(prog: Program) -> str:
    """Canonical content hash (memoized on the Program object)."""
    h = getattr(prog, "_jit_hash", None)
    if h is None:
        text = "\n".join(disassemble_one(i) for i in prog)
        h = hashlib.sha256(text.encode("utf-8")).hexdigest()
        prog._jit_hash = h
    return h


# -- CFG construction --------------------------------------------------------


def _block_starts(prog: Program) -> List[int]:
    leaders: Set[int] = {0}
    n = len(prog)
    for pc, insn in enumerate(prog):
        if isinstance(insn, (Jmp, JmpIf)):
            leaders.add(insn.target)
            if pc + 1 < n:
                leaders.add(pc + 1)
        elif isinstance(insn, Exit):
            if pc + 1 < n:
                leaders.add(pc + 1)
    return sorted(leaders)


def _select_loops(
    prog: Program, loop_bounds: Dict[int, int]
) -> List[Tuple[int, int, int]]:
    """Pick back-edges safe to unroll: single back-edge per body, entry
    only at the header, bounded expansion.  Returns ``(T, S, N)``
    triples (header pc, back-edge pc, proven trips), non-overlapping."""
    chosen: List[Tuple[int, int, int]] = []
    for s_pc in sorted(loop_bounds):
        trips = loop_bounds[s_pc]
        insn = prog[s_pc]
        if not isinstance(insn, (Jmp, JmpIf)):
            continue
        t_pc = insn.target
        if t_pc > s_pc:
            continue
        if not 1 <= trips <= UNROLL_MAX_TRIPS:
            continue
        if (s_pc - t_pc + 1) * (trips + 1) > UNROLL_INSN_BUDGET:
            continue
        ok = True
        # The back-edge at S must be the body's only backward jump.
        for pc in range(t_pc, s_pc):
            i2 = prog[pc]
            if isinstance(i2, (Jmp, JmpIf)) and i2.target <= pc:
                ok = False
                break
        # Entry only at the header: nothing outside jumps into (T, S].
        if ok:
            for pc, i2 in enumerate(prog):
                if t_pc <= pc <= s_pc:
                    continue
                if isinstance(i2, (Jmp, JmpIf)) and t_pc < i2.target <= s_pc:
                    ok = False
                    break
        if ok:
            for t2, s2, _ in chosen:
                if not (s_pc < t2 or t_pc > s2):
                    ok = False
                    break
        if ok:
            chosen.append((t_pc, s_pc, trips))
    return chosen


# copy-key: None for un-cloned code, (T, S, N, c) for copy c (1-based)
_CKey = Optional[Tuple[int, int, int, int]]


@dataclass
class _Node:
    label: int
    start: int
    end: int            # exclusive
    ckey: _CKey


def _expand_nodes(
    prog: Program, loops: List[Tuple[int, int, int]]
) -> List[_Node]:
    starts = _block_starts(prog)
    n = len(prog)
    blocks: List[Tuple[int, int]] = []
    for i, bs in enumerate(starts):
        be = starts[i + 1] if i + 1 < len(starts) else n
        blocks.append((bs, be))
    loop_at = {t: (t, s, N) for (t, s, N) in loops}
    nodes: List[_Node] = []
    i = 0
    while i < len(blocks):
        bs, be = blocks[i]
        loop = loop_at.get(bs)
        if loop is not None:
            t_pc, s_pc, trips = loop
            j = i
            body = []
            while True:
                body.append(blocks[j])
                if blocks[j][1] == s_pc + 1:
                    break
                j += 1
            for c in range(1, trips + 2):
                for (cbs, cbe) in body:
                    nodes.append(
                        _Node(len(nodes), cbs, cbe, (t_pc, s_pc, trips, c))
                    )
            i = j + 1
        else:
            nodes.append(_Node(len(nodes), bs, be, None))
            i += 1
    return nodes


class _Resolver:
    """Maps (target pc, source copy context) -> dispatch label."""

    def __init__(
        self, nodes: List[_Node], loops: List[Tuple[int, int, int]]
    ) -> None:
        self.label: Dict[Tuple[int, _CKey], int] = {
            (nd.start, nd.ckey): nd.label for nd in nodes
        }
        self.loop_at = {t: (t, s, N) for (t, s, N) in loops}
        self.block_start: Dict[int, int] = {}
        for nd in nodes:
            if nd.ckey is None or nd.ckey[3] == 1:
                for pc in range(nd.start, nd.end):
                    self.block_start[pc] = nd.start
        self.runaway_label = len(nodes)
        self.runaway_used = False

    def resolve(self, target_pc: int, ckey: _CKey) -> int:
        bs = self.block_start[target_pc]
        if ckey is not None and ckey[0] <= target_pc <= ckey[1]:
            t_pc, s_pc, trips, c = ckey
            if target_pc == t_pc:
                # The loop's one back-edge: next copy, or (provably
                # unreachable) the runaway trap after the last copy.
                if c <= trips:
                    return self.label[(t_pc, (t_pc, s_pc, trips, c + 1))]
                self.runaway_used = True
                return self.runaway_label
            return self.label[(bs, ckey)]
        loop = self.loop_at.get(bs)
        if loop is not None:
            t_pc, s_pc, trips = loop
            return self.label[(bs, (t_pc, s_pc, trips, 1))]
        return self.label[(bs, None)]


# -- abstract-type inference -------------------------------------------------


def _join(a, b):
    if a is None:
        return b
    if b is None:
        return a
    if a == b:
        return a
    if a == T_TOP or b == T_TOP or a == T_INT or b == T_INT:
        return T_TOP
    if a[1] != b[1]:
        return T_TOP
    off = a[2] if a[2] == b[2] else None
    return ("p", a[1], off)


def _is_ptr(t) -> bool:
    return isinstance(t, tuple)


def _transfer(types: List[Any], insn, registry: KfuncRegistry) -> None:
    """Apply one instruction's effect to the abstract register types."""
    if isinstance(insn, Mov):
        if isinstance(insn.src, Imm):
            types[insn.dst] = T_INT
        else:
            types[insn.dst] = types[insn.src]
    elif isinstance(insn, Alu):
        t = types[insn.dst]
        if _is_ptr(t):
            if isinstance(insn.src, Imm) and t[2] is not None:
                delta = insn.src.value & MASK64
                if insn.op == "sub":
                    delta = -delta
                types[insn.dst] = ("p", t[1], t[2] + delta)
            else:
                types[insn.dst] = ("p", t[1], None)
        elif t == T_TOP:
            types[insn.dst] = T_TOP
        else:
            types[insn.dst] = T_INT
    elif isinstance(insn, Load):
        bt = types[insn.base]
        if _is_ptr(bt) and bt[1] == "ctx" and bt[2] is not None:
            addr = bt[2] + insn.off
            if addr == 0:
                types[insn.dst] = ("p", "pkt", 0)
            elif addr == 8:
                types[insn.dst] = ("p", "pktend", None)
            else:
                types[insn.dst] = T_INT
        elif _is_ptr(bt) and bt[1] in ("pkt", "pktend"):
            types[insn.dst] = T_INT
        else:
            # stack loads may yield spilled pointers; ctx at unknown
            # offsets may yield packet pointers; kptr/top are opaque.
            types[insn.dst] = T_TOP
    elif isinstance(insn, Store):
        pass
    elif isinstance(insn, Call):
        meta = registry.get(insn.func)
        if meta is None or meta.ret == RET_KPTR:
            types[0] = T_TOP
        else:
            types[0] = T_INT
        for i in range(R1, R1 + 5):
            types[i] = T_INT


def _entry_types() -> List[Any]:
    t: List[Any] = [T_INT] * N_REGS
    t[R1] = ("p", "ctx", 0)
    t[R10] = ("p", "stack", 0)
    return t


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


class _Compiler:
    """Lowers one verified program to generated-Python source, as one
    stage of a closure that :mod:`repro.ebpf.fuse` assembles.

    ``sym_prefix`` keeps per-stage global names (``_P*``/``_kf*``)
    collision-free when several programs share one namespace, and
    ``inline_kfuncs`` expands kfunc impls that publish a
    ``_fuse_inline`` codegen spec directly into the body.  At an exit
    the emitted body stores the stage's r0 in ``_rr`` and breaks out of
    its dispatch loop; its runaway-step guard counts from ``_s0``, the
    ``_steps`` value the fuser saves at stage entry (``_steps``
    accumulates across a whole fused batch).
    """

    def __init__(
        self,
        prog: Program,
        ann: Any,
        registry: KfuncRegistry,
        elide_checks: bool,
        sym_prefix: str,
        inline_kfuncs: bool,
    ) -> None:
        self.prog = prog
        self.ann = ann
        self.registry = registry
        self.elide = bool(elide_checks)
        self.sym_prefix = sym_prefix
        self.inline_kfuncs = bool(inline_kfuncs)
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
        #: kfunc call sites expanded inline (``inline_kfuncs`` only).
        self.inlined_calls = 0
        #: Loads ``header_loads`` replaced in the last emission.
        self.forwarded_loads = 0
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
        :meth:`emit_dispatch` needs, separated so the fuser can emit
        several prepared programs into one function body."""
        prog, ann = self.prog, self.ann
        self._loops = _select_loops(prog, dict(ann.loop_bounds))
        self._nodes = _expand_nodes(prog, self._loops)
        self._res = _Resolver(self._nodes, self._loops)
        self._reachable, succs = self._reachability(self._nodes, self._res)
        self._entry_types = self._infer_types(
            self._nodes, self._res, self._reachable, succs
        )

    def emit_dispatch(
        self,
        em: "_Emitter",
        level: int,
        header_loads: Dict[int, str],
        hoist: Callable[[str, int], str],
    ) -> None:
        """Emit the prepared program's ``_b``-dispatch loop at ``level``.

        Assumes r0..r10, ``_s0``, the accounting accumulators, and the
        buffer bindings of the fuser's prologue are in scope.
        ``header_loads`` maps a packet offset to the expression for the
        header field stored there: a check-elided u64 load at one of
        those constant offsets reads the expression instead of the
        packet buffer.  ``hoist(key_expr, seed)`` names the prologue
        list whose ``[_i]`` is ``fast_hash32(key_expr, seed)`` for
        packet ``_i`` of the batch.
        """
        self.header_loads = header_loads
        self.hoist = hoist
        res = self._res
        self.writes = set()
        self.inlined_calls = 0
        self.forwarded_loads = 0
        self.reads_packet = False
        self.hoisted_calls = 0
        em.emit(level, "_b = 0")
        em.emit(level, "while True:")
        for nd in self._nodes:
            if nd.label not in self._reachable:
                continue
            em.emit(level + 1, f"if _b == {nd.label}:")
            self._emit_node(
                em, nd, res, list(self._entry_types[nd.label]), level + 2
            )
        if res.runaway_used:
            em.emit(level + 1, f"if _b == {res.runaway_label}:")
            em.emit(
                level + 2,
                "raise _VmFault('step limit exceeded (runaway program)')",
            )
        em.emit(level + 1, "raise _VmFault('fell off the end of the program')")

    # -- reachability ----------------------------------------------------

    def _node_succ_labels(self, nd: _Node, res: _Resolver) -> List[int]:
        last_pc = nd.end - 1
        insn = self.prog[last_pc]
        if isinstance(insn, Exit):
            return []
        if isinstance(insn, Jmp):
            return [res.resolve(insn.target, nd.ckey)]
        if isinstance(insn, JmpIf):
            out = [res.resolve(insn.target, nd.ckey)]
            if nd.end < len(self.prog):
                out.append(res.resolve(nd.end, nd.ckey))
            return out
        if nd.end < len(self.prog):
            return [res.resolve(nd.end, nd.ckey)]
        return []

    def _reachability(
        self, nodes: List[_Node], res: _Resolver
    ) -> Tuple[Set[int], Dict[int, List[int]]]:
        succs = {nd.label: self._node_succ_labels(nd, res) for nd in nodes}
        reachable: Set[int] = set()
        work = [0]
        while work:
            lbl = work.pop()
            if lbl in reachable or lbl == res.runaway_label:
                continue
            reachable.add(lbl)
            work.extend(succs.get(lbl, ()))
        return reachable, succs

    # -- type inference --------------------------------------------------

    def _infer_types(
        self,
        nodes: List[_Node],
        res: _Resolver,
        reachable: Set[int],
        succs: Dict[int, List[int]],
    ) -> Dict[int, List[Any]]:
        entry: Dict[int, List[Any]] = {nd.label: [None] * N_REGS for nd in nodes}
        entry[0] = _entry_types()
        work = [0]
        while work:
            lbl = work.pop()
            if lbl not in reachable:
                continue
            nd = nodes[lbl]
            types = list(entry[lbl])
            for pc in range(nd.start, nd.end):
                _transfer(types, self.prog[pc], self.registry)
            for s in succs[lbl]:
                if s == res.runaway_label:
                    continue
                tgt = entry[s]
                changed = False
                for i in range(N_REGS):
                    j = _join(tgt[i], types[i])
                    if j != tgt[i]:
                        tgt[i] = j
                        changed = True
                if changed:
                    work.append(s)
        return entry

    # -- node emission ---------------------------------------------------

    def _emit_node(
        self,
        em: _Emitter,
        nd: _Node,
        res: _Resolver,
        types: List[Any],
        level: int = 4,
    ) -> None:
        prog = self.prog
        body = _Emitter()
        tallies = {"eli": 0, "mem": 0, "div": 0}
        n_steps = 0
        # Block entry: no register is known packet-pure.
        self._pure = [None] * N_REGS
        for pc in range(nd.start, nd.end - 1):
            n_steps += 1
            self._emit_insn(body, pc, prog[pc], types, tallies)
            _transfer(types, prog[pc], self.registry)
        last_pc = nd.end - 1
        last = prog[last_pc]
        terminator: List[str] = []
        if isinstance(last, Exit):
            terminator = [f"_rr = r0 & {_HEX_M}", "break"]
        else:
            n_steps += 1
            if isinstance(last, (Mov, Alu, Load, Store, Call)):
                self._emit_insn(body, last_pc, last, types, tallies)
                _transfer(types, last, self.registry)
                terminator = self._goto(nd, res, nd.end)
            elif isinstance(last, Jmp):
                terminator = self._goto(nd, res, last.target)
            elif isinstance(last, JmpIf):
                terminator = self._emit_jmp_if(nd, res, last_pc, last, types)
        # Header: folded per-node accounting constants.
        if n_steps:
            em.emit(level, f"_steps += {n_steps}")
        for name in ("eli", "mem", "div"):
            if tallies[name]:
                em.emit(level, f"_{name} += {tallies[name]}")
        for line in body.lines:
            em.emit(level, line)
        for line in terminator:
            em.emit(level, line)

    def _goto(self, nd: _Node, res: _Resolver, target_pc: int) -> List[str]:
        if target_pc >= len(self.prog):
            return ["raise _VmFault('fell off the end of the program')"]
        lbl = res.resolve(target_pc, nd.ckey)
        return self._goto_label(nd, lbl)

    def _goto_label(self, nd: _Node, lbl: int) -> List[str]:
        if lbl <= nd.label:
            self.used_step_guard = True
            return [
                f"_b = {lbl}",
                f"if _steps - _s0 > {self.max_steps}:",
                "    raise _VmFault("
                "'step limit exceeded (runaway program)')",
                "continue",
            ]
        return [f"_b = {lbl}"]

    # -- branches --------------------------------------------------------

    def _emit_jmp_if(
        self, nd: _Node, res: _Resolver, pc: int, insn: JmpIf, types: List[Any]
    ) -> List[str]:
        lt = types[insn.lhs]
        rhs_imm = insn.rhs.value & MASK64 if isinstance(insn.rhs, Imm) else None
        rt = T_INT if rhs_imm is not None else types[insn.rhs]
        cond: Optional[str] = None
        static: Optional[bool] = None

        def region(t):
            return "pkt" if t[1] == "pktend" else t[1]

        if lt == T_INT and rt == T_INT:
            cond = f"r{insn.lhs} {_PY_CMP[insn.op]} {_src_txt(insn.rhs)}"
        elif _is_ptr(lt) and _is_ptr(rt) and region(lt) == region(rt):
            cond = f"r{insn.lhs}.off {_PY_CMP[insn.op]} r{insn.rhs}.off"
        elif _is_ptr(lt) and rhs_imm is not None:
            # Pointer vs immediate: the interpreter compares 1 <op> imm.
            static = _jmp_taken(insn.op, Pointer("x"), rhs_imm)
        elif lt == T_TOP and rhs_imm == 0 and insn.op in ("eq", "ne"):
            if insn.op == "eq":
                cond = f"r{insn.lhs}.__class__ is not _Ptr and r{insn.lhs} == 0"
            else:
                cond = f"r{insn.lhs}.__class__ is _Ptr or r{insn.lhs} != 0"
        else:
            cond = f"_jcmp('{insn.op}', r{insn.lhs}, {_src_txt(insn.rhs)})"

        if static is not None:
            return self._goto(nd, res, insn.target if static else pc + 1)
        taken = self._goto(nd, res, insn.target)
        fall = self._goto(nd, res, pc + 1)
        if len(taken) == 1 and len(fall) == 1:
            # Both forward: single conditional dispatch assignment.
            t_lbl = taken[0].split("= ")[1]
            f_lbl = fall[0].split("= ")[1]
            return [f"_b = {t_lbl} if ({cond}) else {f_lbl}"]
        out = [f"if {cond}:"]
        out.extend("    " + line for line in taken)
        out.append("else:")
        out.extend("    " + line for line in fall)
        return out

    # -- straight-line instructions --------------------------------------

    def _emit_insn(
        self,
        em: _Emitter,
        pc: int,
        insn,
        types: List[Any],
        tallies: Dict[str, int],
    ) -> None:
        pure = self._pure
        if isinstance(insn, Mov):
            if isinstance(insn.src, Imm):
                pure[insn.dst] = _imm_txt(insn.src.value)
                em.emit(0, f"r{insn.dst} = {pure[insn.dst]}")
            else:
                pure[insn.dst] = pure[insn.src]
                em.emit(0, f"r{insn.dst} = r{insn.src}")
        elif isinstance(insn, Alu):
            pure[insn.dst] = self._pure_alu(insn, types)
            self._emit_alu(em, pc, insn, types, tallies)
        elif isinstance(insn, Load):
            pure[insn.dst] = None  # a forwarded load sets it again
            self._emit_load(em, pc, insn, types, tallies)
        elif isinstance(insn, Store):
            self._emit_store(em, pc, insn, types, tallies)
        elif isinstance(insn, Call):
            self._emit_call(em, insn)
            pure[R0:R1 + 5] = [None] * (R1 + 5 - R0)
        else:  # pragma: no cover - structurally impossible
            raise JitError(f"unexpected mid-block instruction {insn!r}")

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
    ) -> None:
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
            return
        if t == T_TOP and op in ("add", "sub"):
            sign = "+" if op == "add" else "-"
            em.emit(0, f"if r{d}.__class__ is _Ptr:")
            em.emit(1, f"r{d} = _Ptr(r{d}.region, r{d}.off {sign} {s})")
            em.emit(0, "else:")
            em.emit(1, f"r{d} = (r{d} {sign} {s}) & {_HEX_M}")
            return
        if op in ("div", "mod"):
            pyop = "//" if op == "div" else "%"
            word = "division" if op == "div" else "modulo"
            if pc in self.safe_div:
                tallies["eli"] += 1
            else:
                tallies["div"] += 1
                if isinstance(insn.src, Imm):
                    if insn.src.value & MASK64 == 0:
                        em.emit(0, f"raise _VmFault('{word} by zero')")
                        return
                else:
                    em.emit(0, f"if {s} == 0:")
                    em.emit(1, f"raise _VmFault('{word} by zero')")
            em.emit(0, f"r{d} {pyop}= {s}")
            return
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
    ) -> None:
        bt = types[insn.base]
        d = insn.dst
        elided = pc in self.safe_mem
        if bt == T_INT:
            em.emit(0, f"raise _VmFault('load via non-pointer r{insn.base}')")
            return
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
            return
        if _is_ptr(bt) and bt[1] == "pkt":
            a_txt, a_const = self._addr_txt(insn.base, bt, insn.off)
            if elided:
                tallies["eli"] += 1
                fwd = self.header_loads.get(a_const)
                if fwd is not None:
                    self.forwarded_loads += 1
                    self._pure[d] = fwd
                    em.emit(0, f"r{d} = {fwd}")
                    return
                self.reads_packet = True
                if a_const is not None:
                    em.emit(
                        0,
                        f"r{d} = _ifb(_pkt[{a_const}:{a_const + 8}], 'little')",
                    )
                else:
                    em.emit(0, f"_t = {a_txt}")
                    em.emit(0, f"r{d} = _ifb(_pkt[_t:_t + 8], 'little')")
            else:
                tallies["mem"] += 1
                self.reads_packet = True
                em.emit(0, f"r{d} = _rd(_Ptr('pkt', {a_txt}))")
            return
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
            return
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

    def _emit_call(self, em: _Emitter, insn: Call) -> None:
        meta = self.registry.get(insn.func)
        if meta is None:
            em.emit(
                0, f"raise _VmFault('call to unknown kfunc {insn.func!r}')"
            )
            return
        if meta.impl is None:
            em.emit(
                0,
                f"raise _VmFault("
                f"\"kfunc '{insn.func}' has no implementation bound\")",
            )
            return
        spec = (
            getattr(meta.impl, "_fuse_inline", None)
            if self.inline_kfuncs
            else None
        )
        if spec is not None:
            # Small-body kfunc inlined at the call site: the spec emits
            # setup lines plus an int expression over the argument
            # registers, with constants bound via ``self._bind`` —
            # burning map dimensions and steering tables into the code —
            # and packet-pure hashes read from the prologue via
            # ``self._hashed``.  Only valid for RET_SCALAR impls whose
            # expression equals ``int(impl(...)) & MASK64`` bit for bit.
            arg_names = [f"r{R1 + i}" for i in range(len(meta.args))]
            setup, expr = spec(arg_names, self._bind, self._hashed)
            self.inlined_calls += 1
            for line in setup:
                em.emit(0, line)
            em.emit(0, f"r0 = ({expr}) & {_HEX_M}")
            em.emit(0, "r1 = r2 = r3 = r4 = r5 = 0")
            return
        args = "".join(f", r{R1 + i}" for i in range(len(meta.args)))
        self.reads_packet = True
        em.emit(0, f"_res = {self._kf(insn.func)}(vm{args})")
        for i in range(R1, R1 + 5):
            em.emit(0, f"r{i} = 0")
        if meta.ret == RET_VOID:
            em.emit(0, "r0 = 0")
        elif meta.ret == RET_KPTR:
            em.emit(0, "if _res is None or _res == 0:")
            em.emit(1, "r0 = 0")
            em.emit(0, "elif _res.__class__ is not _Ptr:")
            em.emit(
                1,
                f"raise _VmFault('{insn.func}: kptr impl returned '"
                " + repr(_res))",
            )
            em.emit(0, "else:")
            em.emit(1, "r0 = _res")
        else:
            em.emit(0, f"r0 = int(_res or 0) & {_HEX_M}")
