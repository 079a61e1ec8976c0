"""The expanded control-flow graph a verified program compiles from.

:mod:`repro.ebpf.jit` lowers a program block by block from facts
gathered here: the basic blocks, the back-edges the verifier's
``loop_bounds`` proof lets it unroll (each body copy a node of its
own), the dispatch label a jump from a given copy lands on, and a
light abstract type per register at every node's entry — int,
pointer into a region at a static or unknown offset, or top — with
block-local forwarding of scalars spilled to the stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

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
    R1,
    R10,
    N_REGS,
)
from .kfunc_meta import KfuncRegistry, RET_KPTR
from .vm import MASK64

#: Loops whose proven trip count exceeds this run un-unrolled (dispatch
#: loop with a real back-edge) — still compiled, just not flattened.
UNROLL_MAX_TRIPS = 64
#: Cap on ``body_insns * copies`` per loop, bounding generated code size.
UNROLL_INSN_BUDGET = 4096

# -- abstract types for the specializer -------------------------------------
# "i"            definitely an int (always masked to 64 bits)
# ("p", region, off)  definitely a Pointer into `region`; `off` is the
#                statically known byte offset or None
# "t"            top: int or Pointer (generic code emitted)
T_INT = "i"
T_TOP = "t"

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


def _transfer(
    types: List[Any], insn, registry: KfuncRegistry, forwarded: bool = False
) -> None:
    """Apply one instruction's effect to the abstract register types.
    ``forwarded`` marks a stack load :class:`_StackFwd` resolved to a
    known scalar."""
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
        if forwarded:
            types[insn.dst] = T_INT
        elif _is_ptr(bt) and bt[1] == "ctx" and bt[2] is not None:
            addr = bt[2] + insn.off
            if addr == 0:
                types[insn.dst] = ("p", "pkt", 0)
            elif addr == 8:
                # ("p", "pktend", d): d bytes past data_end.
                types[insn.dst] = ("p", "pktend", 0)
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


class _StackFwd:
    """Block-local stack-load forwarding.

    Maps a constant stack offset to the scalar last stored there (a
    register name or an immediate), for as long as that register and
    the slot's bytes are unchanged.  A later load of the same slot
    reads the scalar instead of the stack.  Any store that may overlap
    the slot, a store whose target is unknown, a redefinition of the
    register, and every kfunc call (its pointer arguments may reach the
    stack) forget the entry.
    """

    def __init__(self) -> None:
        self.slots: Dict[int, str] = {}

    def source(self, insn, types: List[Any]) -> Optional[str]:
        """The scalar a stack load reads, if known; else None."""
        if isinstance(insn, Load):
            bt = types[insn.base]
            if _is_ptr(bt) and bt[1] == "stack" and bt[2] is not None:
                return self.slots.get(bt[2] + insn.off)
        return None

    def step(self, insn, types: List[Any]) -> None:
        """Account for ``insn``; ``types`` are those before it."""
        slots = self.slots
        if isinstance(insn, Store):
            bt = types[insn.base]
            if not _is_ptr(bt) or bt[1] not in ("pkt", "ctx", "stack"):
                slots.clear()
            elif bt[1] == "stack":
                if bt[2] is None:
                    slots.clear()
                    return
                a = bt[2] + insn.off
                for k in [k for k in slots if -8 < k - a < 8]:
                    del slots[k]
                if isinstance(insn.src, Imm):
                    slots[a] = str(insn.src.value & MASK64)
                elif types[insn.src] == T_INT:
                    slots[a] = f"r{insn.src}"
        elif isinstance(insn, Call):
            slots.clear()
        elif isinstance(insn, (Mov, Alu, Load)):
            reg = f"r{insn.dst}"
            for k in [k for k, v in slots.items() if v == reg]:
                del slots[k]


def _succ_labels(prog: Program, nd: _Node, res: _Resolver) -> List[int]:
    last_pc = nd.end - 1
    insn = prog[last_pc]
    if isinstance(insn, Exit):
        return []
    if isinstance(insn, Jmp):
        return [res.resolve(insn.target, nd.ckey)]
    if isinstance(insn, JmpIf):
        out = [res.resolve(insn.target, nd.ckey)]
        if nd.end < len(prog):
            out.append(res.resolve(nd.end, nd.ckey))
        return out
    if nd.end < len(prog):
        return [res.resolve(nd.end, nd.ckey)]
    return []


def _reachability(
    prog: Program, nodes: List[_Node], res: _Resolver
) -> Tuple[Set[int], Dict[int, List[int]]]:
    """Labels reachable from the entry, and every node's successors."""
    succs = {nd.label: _succ_labels(prog, nd, res) for nd in nodes}
    reachable: Set[int] = set()
    work = [0]
    while work:
        lbl = work.pop()
        if lbl in reachable or lbl == res.runaway_label:
            continue
        reachable.add(lbl)
        work.extend(succs.get(lbl, ()))
    return reachable, succs


def _infer_entry_types(
    prog: Program,
    registry: KfuncRegistry,
    nodes: List[_Node],
    res: _Resolver,
    reachable: Set[int],
    succs: Dict[int, List[int]],
) -> Dict[int, List[Any]]:
    """The abstract register types at each reachable node's entry: a
    fixpoint of :func:`_transfer` (with stack forwarding) joined over
    the expanded CFG's edges."""
    entry: Dict[int, List[Any]] = {nd.label: [None] * N_REGS for nd in nodes}
    entry[0] = _entry_types()
    work = [0]
    while work:
        lbl = work.pop()
        if lbl not in reachable:
            continue
        nd = nodes[lbl]
        types = list(entry[lbl])
        fwd = _StackFwd()
        for pc in range(nd.start, nd.end):
            insn = prog[pc]
            src = fwd.source(insn, types)
            fwd.step(insn, types)
            _transfer(types, insn, registry, src is not None)
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
