"""Static verifier for the simulated eBPF IR.

Implements the safety rules the paper's design leans on (§4.1, §4.4):

1. **Safe termination** — loops must have a statically provable trip
   bound (back edges are accepted only while the abstract state keeps
   making progress; a repeating state on a back edge is rejected),
   no out-of-bounds jumps, no possible division by zero, bounded
   verification complexity.
2. **Memory safety** — stack accesses in-bounds and initialized-before-
   read, packet access proven against ``data_end``, kernel pointers
   null-checked before dereference (``KF_RET_NULL``), no pointer stores
   into kernel memory.
3. **Resource safety** — every acquired reference (``KF_ACQUIRE``) is
   released exactly once (``KF_RELEASE``) on every path; released
   pointers are invalidated everywhere (no use-after-free); only valid
   pointers may be passed to kfuncs.

The verifier is a path-sensitive abstract interpreter: it explores the
program's CFG depth-first with symbolic register/stack states, prunes
states it has already fully explored, and rejects a cycle in the
abstract state graph as a possible unbounded loop.  Scalars carry a
full value-tracking domain (:mod:`repro.ebpf.tnum`: known bits plus
unsigned/signed intervals) refined at conditional branches — this is
what accepts guarded packet access, variable-offset access into a
checked region, range-proven divisors and shift amounts, and
constant-trip-count loops (unrolled through value tracking).

Verification produces a :class:`VerifiedProgram` whose
:class:`ProofAnnotations` record which instructions were proven safe
on every reachable path; the VM (:mod:`repro.ebpf.vm`) consumes them
to *elide* the corresponding runtime checks — the paper's lazy-check
payoff, where static analysis buys back hot-path cycles.

Like the kernel's verifier it validates programs against kfunc
*metadata* (:mod:`repro.ebpf.kfunc_meta`), never against kfunc
implementations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from .insn import (
    Alu,
    Call,
    Exit,
    Imm,
    Insn,
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
from .kfunc_meta import (
    ARG_CONST,
    ARG_KPTR,
    ARG_PTR,
    ARG_SCALAR,
    KfuncMeta,
    KfuncRegistry,
    RET_KPTR,
    RET_SCALAR,
    RET_VOID,
)
from .tnum import (
    ScalarRange,
    const_range,
    range_subsumes,
    range_widen,
    refine_cmp,
    unknown_range,
)

#: Size (bytes) of kernel memory regions returned by kfuncs; accesses
#: beyond this are rejected as out-of-bounds.
KPTR_REGION_SIZE = 256
CTX_REGION_SIZE = 256
ACCESS_SIZE = 8

#: Complexity cap: maximum abstract states explored before rejecting.
MAX_STATES = 50_000

#: Largest scalar umax allowed into pointer arithmetic — anything wider
#: can never pass a bounds check, so reject at the ALU (clear message,
#: matches the kernel's refusal of unbounded var_off).
VAR_OFF_LIMIT = 1 << 32

#: Per-instruction entry states kept for the CLI's range-fact listing.
MAX_FACTS_PER_INSN = 4

#: Back-edge traversals before a loop header switches from per-trip
#: unrolling to join/widen fixpoint iteration (``widen="auto"``).  Kept
#: above the JIT's ``UNROLL_MAX_TRIPS`` so small constant-trip loops
#: keep their exact per-trip states (and their unrolled codegen).
WIDEN_AFTER_TRIPS = 128

#: Precise joins applied to a loop-header invariant before widening
#: jumps grown interval bounds to their type limits.
WIDEN_JOINS = 3

#: Hard cap on fixpoint restarts — preserves verifier termination even
#: if join/widen fail to converge (they should within ~WIDEN_JOINS + a
#: few tnum-mask growth steps per register).
MAX_FIXPOINT_ITERS = 128

#: Largest trip bound accepted for a widened loop; wider bounds must be
#: masked/bounds-checked down first (mirrors the unbounded-var-off rule).
MAX_WIDENED_TRIPS = 1 << 20

#: Fully-explored states remembered per pruning point for subsumption
#: checks (the kernel keeps a similar bounded ``explored_states`` list
#: per instruction).
MAX_BLACK_PER_PC = 24

NOT_INIT = "not_init"
SCALAR = "scalar"
STACK_PTR = "stack_ptr"
CTX_PTR = "ctx_ptr"
KPTR = "kptr"
PKT_PTR = "pkt_ptr"      # ctx->data (+ tracked offset)
PKT_END = "pkt_end"      # ctx->data_end

#: XDP context layout: loads at these ctx offsets yield packet pointers.
CTX_OFF_DATA = 0
CTX_OFF_DATA_END = 8

#: Operand flip for ``data_end <op> data`` comparisons.
_FLIP_CMP = {"lt": "gt", "gt": "lt", "le": "ge", "ge": "le", "eq": "eq", "ne": "ne"}


class VerifierError(Exception):
    """Program rejected; carries the offending instruction index plus —
    when raised during path exploration — the disassembled instruction,
    the abstract state on the failing path, and the path itself.

    :meth:`explain` renders the full diagnostic (the CLI's
    ``--explain`` flag prints it).
    """

    def __init__(self, message: str, pc: Optional[int] = None) -> None:
        self.pc = pc
        self.message = message
        #: Filled in by the explorer when the failure happened on a path.
        self.insn_text: Optional[str] = None
        self.state_text: Optional[str] = None
        self.path: Optional[List[int]] = None
        #: Loop diagnostics for widening failures: the loop-header
        #: instruction index, the rendered header invariant, and the
        #: per-register join/widen diff that failed to converge.
        self.loop_header: Optional[int] = None
        self.invariant_text: Optional[str] = None
        self.state_diff: Optional[List[str]] = None
        prefix = f"insn {pc}: " if pc is not None else ""
        super().__init__(prefix + message)

    def explain(self) -> str:
        """Multi-line diagnostic: instruction, failing path, state."""
        lines = [str(self)]
        if self.insn_text is not None:
            lines.append(f"  at: {self.insn_text}")
        if self.path is not None:
            shown = self.path if len(self.path) <= 24 else (
                self.path[:8] + ["..."] + self.path[-15:]
            )
            lines.append("  path: " + " -> ".join(str(p) for p in shown))
        if self.state_text is not None:
            lines.append(f"  state: {self.state_text}")
        if self.loop_header is not None:
            lines.append(f"  loop header: insn {self.loop_header}")
        if self.invariant_text is not None:
            lines.append(f"  header invariant: {self.invariant_text}")
        if self.state_diff:
            lines.append("  joined/widened header diff (old -> new):")
            for entry in self.state_diff:
                lines.append(f"    {entry}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Reg:
    """Abstract state of one register.

    Scalars carry a :class:`ScalarRange` (``rng``).  Pointers carry a
    constant offset (``off``) plus an optional *variable* offset range
    (``var``) accumulated from bounded-scalar pointer arithmetic — the
    kernel's ``var_off`` — used for variable-offset packet and stack
    access proofs.
    """

    kind: str = NOT_INIT
    rng: Optional[ScalarRange] = None     # scalar value range
    off: int = 0                          # pointer fixed offset
    var: Optional[ScalarRange] = None     # pointer variable offset
    var_id: Optional[int] = None          # identity of the variable part
    maybe_null: bool = False              # unchecked kfunc return
    ref_id: Optional[int] = None          # acquired-reference identity
    #: Known byte size of the pointed-to kernel region (KPTR only).
    #: Set from the acquiring kfunc's declared ``size_arg`` constant;
    #: ``None`` falls back to :data:`KPTR_REGION_SIZE`.
    size: Optional[int] = None

    @property
    def is_pointer(self) -> bool:
        return self.kind in (STACK_PTR, CTX_PTR, KPTR, PKT_PTR, PKT_END)

    @property
    def const(self) -> Optional[int]:
        """Known constant value (scalars only), canonical u64."""
        if self.kind == SCALAR and self.rng is not None:
            return self.rng.const
        return None

    @property
    def var_min(self) -> int:
        return self.var.umin if self.var is not None else 0

    @property
    def var_max(self) -> int:
        return self.var.umax if self.var is not None else 0

    def key(self, ref_canon: Dict[int, int], var_canon: Dict[int, int]) -> Tuple:
        rng_key = self.rng.key() if self.rng is not None else None
        var_key = self.var.key() if self.var is not None else None
        ref = None
        if self.ref_id is not None:
            ref = ref_canon.setdefault(self.ref_id, len(ref_canon))
        vid = None
        if self.var_id is not None:
            vid = var_canon.setdefault(self.var_id, len(var_canon))
        return (self.kind, rng_key, self.off, var_key, vid, self.maybe_null,
                ref, self.size)

    def describe(self, name: str) -> Optional[str]:
        """Compact human-readable fact, or ``None`` for uninit regs."""
        if self.kind == NOT_INIT:
            return None
        if self.kind == SCALAR:
            return f"{name}={self.rng}"
        parts = {STACK_PTR: "fp", CTX_PTR: "ctx", KPTR: "kptr",
                 PKT_PTR: "pkt", PKT_END: "pkt_end"}[self.kind]
        s = f"{name}={parts}"
        if self.size is not None:
            s += f"[{self.size}]"
        if self.off or self.var is not None:
            s += f"{self.off:+d}"
        if self.var is not None:
            s += f"+[{self.var.umin},{self.var.umax}]"
        if self.maybe_null:
            s += "?"
        if self.ref_id is not None:
            s += f" (ref)"
        return s


SCALAR_UNKNOWN = Reg(kind=SCALAR, rng=unknown_range())


def scalar(value: Optional[int] = None) -> Reg:
    if value is None:
        return SCALAR_UNKNOWN
    return Reg(kind=SCALAR, rng=const_range(value))


def scalar_range(rng: ScalarRange) -> Reg:
    return Reg(kind=SCALAR, rng=rng)


@dataclass(frozen=True)
class AbstractState:
    """Registers + stack + live references at one program point."""

    regs: Tuple[Reg, ...]
    stack: Tuple[Tuple[int, Reg], ...]          # (slot offset, stored state)
    refs: FrozenSet[int]
    #: Bytes of packet data proven in-bounds by a data_end comparison
    #: (counted from ``data`` plus the checked pointer's *minimum*
    #: variable offset — the conservative global fact).
    pkt_checked: int = 0
    #: Per-variable-offset proofs: ``var_id -> P`` means a pointer
    #: carrying that variable part was proven ``data + var + P <=
    #: data_end`` — any same-var pointer may access fixed bytes ``< P``
    #: (the kernel's ``find_good_pkt_pointers`` range propagation).
    pkt_vchecked: Tuple[Tuple[int, int], ...] = ()

    def reg(self, i: int) -> Reg:
        return self.regs[i]

    def with_reg(self, i: int, r: Reg) -> "AbstractState":
        regs = list(self.regs)
        regs[i] = r
        return replace(self, regs=tuple(regs))

    def with_stack_slot(self, off: int, r: Reg) -> "AbstractState":
        slots = dict(self.stack)
        slots[off] = r
        return replace(self, stack=tuple(sorted(slots.items())))

    def stack_slot(self, off: int) -> Optional[Reg]:
        for slot_off, r in self.stack:
            if slot_off == off:
                return r
        return None

    def key(self) -> Tuple:
        # Acquired-reference and variable-offset ids are canonicalized
        # by first appearance so loop iterations that mint fresh ids
        # still converge to identical keys.
        ref_canon: Dict[int, int] = {}
        var_canon: Dict[int, int] = {}
        regs = tuple(r.key(ref_canon, var_canon) for r in self.regs)
        stack = tuple((off, r.key(ref_canon, var_canon)) for off, r in self.stack)
        refs = tuple(sorted(ref_canon.setdefault(r, len(ref_canon))
                            for r in self.refs))
        vchecked = tuple(sorted(
            (var_canon[vid], p) for vid, p in self.pkt_vchecked
            if vid in var_canon  # proofs for dead vars don't distinguish states
        ))
        return (regs, stack, refs, self.pkt_checked, vchecked)

    def describe(self) -> str:
        parts = []
        for i, r in enumerate(self.regs):
            fact = r.describe(f"r{i}")
            if fact is not None:
                parts.append(fact)
        if self.pkt_checked:
            parts.append(f"pkt_checked={self.pkt_checked}")
        if self.refs:
            parts.append(f"live_refs={len(self.refs)}")
        for off, r in self.stack:
            fact = r.describe(f"fp{off:+d}")
            if fact is not None:
                parts.append(fact)
        return " ".join(parts) if parts else "(entry)"


def initial_state() -> AbstractState:
    regs = [Reg() for _ in range(N_REGS)]
    regs[R1] = Reg(kind=CTX_PTR)
    regs[R10] = Reg(kind=STACK_PTR, off=0)
    return AbstractState(regs=tuple(regs), stack=(), refs=frozenset())


_NOT_INIT_REG = Reg()


def reg_subsumes(old: Reg, new: Reg) -> bool:
    """``regsafe``: does the fully-explored ``old`` register state cover
    ``new``?  Uninitialized in ``old`` covers anything (the explored
    subtree never read the register, and ``new``'s feasible paths are a
    subset of ``old``'s).  Scalars use range containment; pointers must
    match exactly — except ``maybe_null``, which may only *relax* (a
    subtree verified against a possibly-NULL pointer covers the
    definitely-non-NULL case).  Identity-carrying registers (acquired
    refs, variable-offset parts) are conservatively never subsumed —
    their safety depends on cross-register aliasing the pointwise
    comparison cannot see.
    """
    if old.kind == NOT_INIT:
        return True
    if new.kind == NOT_INIT:
        return False
    if old.ref_id is not None or new.ref_id is not None:
        return False
    if (old.var is not None or new.var is not None
            or old.var_id is not None or new.var_id is not None):
        return False
    if old.kind == SCALAR:
        return new.kind == SCALAR and range_subsumes(old.rng, new.rng)
    if new.kind != old.kind or new.off != old.off or new.size != old.size:
        return False
    return old.maybe_null or not new.maybe_null


def state_subsumes(old: AbstractState, new: AbstractState) -> bool:
    """``states_equal``-style pruning test: if verification succeeded
    from ``old``, every behavior reachable from ``new`` was covered.

    Conservative wherever covering is not pointwise: live references
    and variable-offset packet proofs held by ``old`` force exact
    matching (handled by the explorer's black set).  ``new`` may carry
    variable-offset proofs ``old`` lacks: those only *constrain* the
    concrete states reachable from ``new`` (they are facts, not values),
    and the subtree explored from ``old`` verified without relying on
    them — this is what lets states flowing out of joined/widened loop
    bodies still be pruned downstream.
    """
    if old.refs or new.refs:
        return False
    if old.pkt_vchecked:
        return False
    # More proven packet bytes = strictly safer; `old` must have proven
    # no more than `new` has.
    if old.pkt_checked > new.pkt_checked:
        return False
    for o, n in zip(old.regs, new.regs):
        if not reg_subsumes(o, n):
            return False
    old_slots = dict(old.stack)
    new_slots = dict(new.stack)
    for off in set(old_slots) | set(new_slots):
        if not reg_subsumes(
            old_slots.get(off, _NOT_INIT_REG),
            new_slots.get(off, _NOT_INIT_REG),
        ):
            return False
    return True


def reg_join(a: Reg, b: Reg) -> Reg:
    """Least upper bound of two register states.  ``NOT_INIT`` is the
    domain's top: joining incompatible registers (pointer kinds, offsets
    or identities that differ between loop iterations) yields an
    uninitialized register — sound, because any later *read* of it is
    rejected.  Scalars join their value ranges; pointers that agree on
    everything but nullability keep the weaker (maybe-NULL) view.
    """
    if a == b:
        return a
    if a.kind == SCALAR and b.kind == SCALAR:
        return scalar_range(a.rng.join(b.rng))
    if (
        a.kind == b.kind
        and a.is_pointer
        and a.off == b.off
        and a.var is None and b.var is None
        and a.var_id is None and b.var_id is None
        and a.ref_id is None and b.ref_id is None
        and a.size == b.size
    ):
        return replace(a, maybe_null=a.maybe_null or b.maybe_null)
    return _NOT_INIT_REG


def state_join(a: AbstractState, b: AbstractState) -> Optional[AbstractState]:
    """Pointwise least upper bound of two states at the same program
    point (a loop header).  Returns ``None`` when no sound join exists:
    live acquired references must match exactly — a loop that acquires
    or releases across iterations has no per-header invariant in this
    domain.  Stack slots surviving the join as ``NOT_INIT`` are dropped
    (absent and uninitialized are the same abstraction); packet proofs
    keep only what *both* states proved.
    """
    if a.refs != b.refs:
        return None
    regs = tuple(reg_join(x, y) for x, y in zip(a.regs, b.regs))
    a_slots, b_slots = dict(a.stack), dict(b.stack)
    slots = {}
    for off in set(a_slots) & set(b_slots):
        j = reg_join(a_slots[off], b_slots[off])
        if j.kind != NOT_INIT:
            slots[off] = j
    av, bv = dict(a.pkt_vchecked), dict(b.pkt_vchecked)
    vchecked = tuple(sorted(
        (vid, min(av[vid], bv[vid])) for vid in set(av) & set(bv)
    ))
    return AbstractState(
        regs=regs,
        stack=tuple(sorted(slots.items())),
        refs=a.refs,
        pkt_checked=min(a.pkt_checked, b.pkt_checked),
        pkt_vchecked=vchecked,
    )


def state_widen(old: AbstractState, new: AbstractState) -> AbstractState:
    """Widen ``old`` (the previous header invariant) against ``new``
    (its join with the latest back-edge state): every scalar whose
    bounds grew jumps to type limits via :func:`range_widen` so the
    fixpoint converges in O(1) iterations instead of one per trip."""
    regs = tuple(
        scalar_range(range_widen(o.rng, n.rng))
        if o.kind == SCALAR and n.kind == SCALAR
        else n
        for o, n in zip(old.regs, new.regs)
    )
    old_slots = dict(old.stack)
    slots = []
    for off, n in new.stack:
        o = old_slots.get(off)
        if o is not None and o.kind == SCALAR and n.kind == SCALAR:
            slots.append((off, scalar_range(range_widen(o.rng, n.rng))))
        else:
            slots.append((off, n))
    return replace(new, regs=regs, stack=tuple(slots))


def _reg_text(r: Reg) -> str:
    d = r.describe("x")
    return d[2:] if d is not None else "not_init"


def _state_diff(old: AbstractState, new: AbstractState) -> List[str]:
    """Per-slot rendering of how a header state grew under join/widen —
    the ``--explain`` payload for loops that fail to converge."""
    diff: List[str] = []
    for i, (o, n) in enumerate(zip(old.regs, new.regs)):
        if o != n:
            diff.append(f"r{i}: {_reg_text(o)} -> {_reg_text(n)}")
    old_slots, new_slots = dict(old.stack), dict(new.stack)
    for off in sorted(set(old_slots) | set(new_slots)):
        o = old_slots.get(off, _NOT_INIT_REG)
        n = new_slots.get(off, _NOT_INIT_REG)
        if o != n:
            diff.append(f"fp{off:+d}: {_reg_text(o)} -> {_reg_text(n)}")
    if old.pkt_checked != new.pkt_checked:
        diff.append(f"pkt_checked: {old.pkt_checked} -> {new.pkt_checked}")
    return diff


def _writes_reg(insn: Insn, reg: int) -> bool:
    """Does executing ``insn`` write register ``reg``?  (Kfunc calls
    clobber the caller-saved window r0-r5.)"""
    if isinstance(insn, (Mov, Alu, Load)) and insn.dst == reg:
        return True
    if isinstance(insn, Call) and reg <= 5:
        return True
    return False


class _NeedsWidening(Exception):
    """Internal control flow: the invariant at ``header`` must grow to
    ``state``; the verifier restarts exploration with the new invariant.
    Deliberately *not* a :class:`VerifierError` — it never escapes
    :meth:`Verifier.verify`."""

    def __init__(
        self, header: int, state: AbstractState,
        old: Optional[AbstractState] = None,
    ) -> None:
        self.header = header
        self.state = state
        self.old = old
        super().__init__(f"widen loop header {header}")


@dataclass(frozen=True)
class LoopInvariant:
    """Proof record for one widened loop: the fixpoint header state and
    the monotone-counter argument that bounds its trips."""

    header: int        # loop-header instruction index
    back_edge: int     # back-edge instruction index
    trip_bound: int    # proven max back-edge traversals per loop entry
    counter_reg: int   # the register proven to make monotone progress
    invariant: str     # rendered fixpoint header state


@dataclass(frozen=True)
class VerifierStats:
    """Exploration statistics for one accepted program."""

    states_explored: int
    checks_elided: int = 0
    loops_bounded: int = 0
    max_trip_count: int = 0
    states_pruned: int = 0
    #: Loops verified by join/widen fixpoint (data-dependent trip
    #: counts) — counted separately from constant-trip ``loops_bounded``.
    loops_widened: int = 0
    #: Join/widen restarts it took the loop invariants to converge.
    fixpoint_iters: int = 0


@dataclass(frozen=True)
class ProofAnnotations:
    """Per-instruction proof table emitted on acceptance.

    ``safe_mem`` / ``safe_div`` name the Load/Store and div/mod
    instruction indices whose safety checks were discharged statically
    on **every reachable path** — the VM skips the corresponding
    runtime checks and the cost model charges the elided (lazy) cost.
    ``loop_bounds`` maps each back-edge source to the number of
    traversals the exploration proved finite.  ``facts`` (populated
    with ``collect_facts=True``) holds rendered entry states per
    instruction for the CLI listing.
    """

    safe_mem: FrozenSet[int] = frozenset()
    safe_div: FrozenSet[int] = frozenset()
    loop_bounds: Dict[int, int] = field(default_factory=dict)
    states_explored: int = 0
    states_pruned: int = 0
    facts: Dict[int, List[str]] = field(default_factory=dict)
    #: Widened loops by header pc: fixpoint invariant + proven trip
    #: bound.  Disjoint from ``loop_bounds`` — the JIT must *not* unroll
    #: these (their abstract traversal count is O(1), not a trip count).
    loop_invariants: Dict[int, LoopInvariant] = field(default_factory=dict)
    #: Extra step budget for widened loops: their concrete trips are not
    #: covered by the explored-states graph, so the VM/JIT runaway
    #: guards add the proven ``trip_bound * body`` products here.
    widened_steps: int = 0

    @property
    def checks_elided(self) -> int:
        return len(self.safe_mem) + len(self.safe_div)


@dataclass(frozen=True)
class VerifiedProgram:
    """An accepted program plus its proof annotations and stats."""

    prog: Program
    stats: VerifierStats
    annotations: ProofAnnotations

    @property
    def states_explored(self) -> int:
        return self.stats.states_explored

    @property
    def widened_steps(self) -> int:
        return self.annotations.widened_steps

    @property
    def loop_invariants(self) -> Dict[int, LoopInvariant]:
        return self.annotations.loop_invariants

    @property
    def max_steps(self) -> int:
        """Sound step budget for the VM.  An accepted program's covering
        graph — explored states plus pruned states re-routed to the
        black states that subsumed them — is acyclic (prune edges always
        point to earlier-blackened states), so a concrete run takes at
        most one step per node of that graph.  Widened loops are the
        exception: their back-edges close cycles in the covering graph,
        so their proven ``trip_bound * body`` budgets are added on top
        (``ProofAnnotations.widened_steps``)."""
        return (self.stats.states_explored + self.stats.states_pruned
                + self.annotations.widened_steps + len(self.prog) + 64)


class _Frame:
    """One DFS frame: a program point plus its pending successors."""

    __slots__ = ("pc", "state", "key", "succs", "idx")

    def __init__(self, pc: int, state: AbstractState, key: Tuple) -> None:
        self.pc = pc
        self.state = state
        self.key = key
        self.succs: Optional[List[Tuple[int, AbstractState]]] = None
        self.idx = 0


class Verifier:
    """Verify a :class:`Program` against a kfunc registry."""

    def __init__(
        self,
        registry: KfuncRegistry,
        prog_type: str = "xdp",
        max_states: int = MAX_STATES,
        collect_facts: bool = False,
        prune: bool = True,
        widen: str = "auto",
    ) -> None:
        if widen not in ("auto", "always", "off"):
            raise ValueError(f"widen must be auto/always/off, not {widen!r}")
        self.registry = registry
        self.prog_type = prog_type
        self.max_states = max_states
        self.collect_facts = collect_facts
        self.prune = prune
        #: Loop-widening mode: ``auto`` unrolls small loops per-trip and
        #: switches to join/widen fixpoints past ``WIDEN_AFTER_TRIPS``
        #: (or on a repeating back-edge state); ``always`` widens every
        #: back-edge target from the start (precision-ablation mode);
        #: ``off`` reproduces the pre-widening verifier exactly.
        self.widen = widen

    # -- public API ------------------------------------------------------

    def verify(self, prog: Program) -> VerifiedProgram:
        """Raise :class:`VerifierError` if ``prog`` is unsafe; return the
        :class:`VerifiedProgram` proof table otherwise.

        Runs as a fixpoint driver around :meth:`_explore`: whenever a
        loop header's invariant must grow (join or widen), exploration
        restarts with the larger header state — the final, converged
        attempt is the one whose proofs are kept, so every ``safe_mem``
        / ``safe_div`` fact holds under the widened invariants too.
        """
        self._widen_headers: Set[int] = set()
        self._invariants: Dict[int, AbstractState] = {}
        self._join_counts: Dict[int, int] = {}
        self._widened_edges: Dict[int, Set[int]] = {}
        #: Last (old, grown) invariant pair per header — the diff shown
        #: by ``--explain`` when a widened loop is ultimately rejected.
        self._grow_diff: Dict[int, Tuple[AbstractState, AbstractState]] = {}
        if self.widen == "always":
            for pc, insn in enumerate(prog):
                tgt = getattr(insn, "target", None)
                if tgt is not None and tgt <= pc:
                    self._widen_headers.add(tgt)
        fixpoint_iters = 0
        while True:
            self._widened_edges = {}
            try:
                return self._explore(prog, fixpoint_iters)
            except _NeedsWidening as grow:
                fixpoint_iters += 1
                if fixpoint_iters > MAX_FIXPOINT_ITERS:
                    err = VerifierError(
                        "widening did not converge within "
                        f"{MAX_FIXPOINT_ITERS} fixpoint iterations "
                        "(abstract state keeps growing across the "
                        "back-edge)",
                        grow.header,
                    )
                    err.loop_header = grow.header
                    err.state_text = grow.state.describe()
                    if grow.old is not None:
                        err.state_diff = _state_diff(grow.old, grow.state)
                    self._enrich_error(err, prog, [])
                    raise err
                self._widen_headers.add(grow.header)
                self._invariants[grow.header] = grow.state
                if grow.old is not None:
                    self._grow_diff[grow.header] = (grow.old, grow.state)

    def _explore(self, prog: Program, fixpoint_iters: int) -> VerifiedProgram:
        """One exploration attempt under the current loop invariants."""
        self._safe_mem: Set[int] = set()
        self._safe_div: Set[int] = set()
        self._trips: Dict[int, int] = {}
        facts: Dict[int, List[str]] = {}
        explored = 0
        pruned = 0
        black: Set[Tuple] = set()
        gray: Set[Tuple] = set()
        # Subsumption pruning is attempted only at join points (branch
        # and jump targets) against *black* (fully explored) states —
        # prune edges then always point to earlier-blackened states, so
        # the covering graph stays acyclic and `max_steps` stays sound.
        prune_pts = self._prune_points(prog) if self.prune else frozenset()
        black_by_pc: Dict[int, List[AbstractState]] = {}

        state0 = initial_state()
        if 0 in self._widen_headers:
            # The entry point itself is a loop header: program entry is
            # just one more edge into its invariant.
            state0 = self._join_into_invariant(0, state0, 0)
        root = _Frame(0, state0, (0, state0.key()))
        frames: List[_Frame] = [root]
        gray.add(root.key)
        explored += 1
        if self.collect_facts:
            facts.setdefault(0, []).append(state0.describe())

        try:
            while frames:
                fr = frames[-1]
                if fr.succs is None:
                    if fr.pc >= len(prog):
                        raise VerifierError(
                            "fell off the end of the program", fr.pc
                        )
                    fr.succs = self._step(prog, fr.pc, fr.state)
                if fr.idx >= len(fr.succs):
                    gray.discard(fr.key)
                    black.add(fr.key)
                    if fr.pc in prune_pts:
                        bucket = black_by_pc.setdefault(fr.pc, [])
                        if len(bucket) < MAX_BLACK_PER_PC:
                            bucket.append(fr.state)
                    frames.pop()
                    continue
                nxt_pc, nxt_state = fr.succs[fr.idx]
                fr.idx += 1
                back_edge = nxt_pc <= fr.pc
                widened = nxt_pc in self._widen_headers
                if widened:
                    # Every edge into a widened header flows through its
                    # invariant: the join detects growth (restarting the
                    # fixpoint), and a covered state routes to the one
                    # canonical header state — O(1) states per header.
                    nxt_state = self._join_into_invariant(
                        nxt_pc, nxt_state, fr.pc
                    )
                    if back_edge:
                        self._widened_edges.setdefault(
                            nxt_pc, set()
                        ).add(fr.pc)
                elif back_edge:
                    trips = self._trips.get(fr.pc, 0) + 1
                    self._trips[fr.pc] = trips
                    if self.widen == "auto" and trips > WIDEN_AFTER_TRIPS:
                        # Too many distinct per-trip states: stop
                        # unrolling this loop and widen it instead.
                        raise _NeedsWidening(nxt_pc, nxt_state)
                key = (nxt_pc, nxt_state.key())
                if key in gray:
                    if widened and back_edge:
                        # Fixpoint reached: the back-edge re-enters the
                        # header invariant already on the DFS stack.
                        # Sound despite the abstract cycle — termination
                        # is proven separately by the monotone-counter
                        # trip bound (see _prove_widened_loops).
                        continue
                    if self.widen != "off":
                        if back_edge and not widened:
                            raise _NeedsWidening(nxt_pc, nxt_state)
                        # The cycle closed on a forward edge: widen the
                        # header of the back-edge inside the on-stack
                        # cycle instead (unless already widened — then
                        # the loop is irreducible in this domain).
                        hdr = self._cycle_header(frames, key)
                        if hdr is not None and hdr[0] not in self._widen_headers:
                            raise _NeedsWidening(hdr[0], hdr[1])
                    raise VerifierError(
                        "possible unbounded loop: abstract state repeats "
                        "on a back-edge (no provable progress)",
                        fr.pc,
                    )
                if key in black:
                    continue
                if nxt_pc in prune_pts and any(
                    state_subsumes(old, nxt_state)
                    for old in black_by_pc.get(nxt_pc, ())
                ):
                    pruned += 1
                    continue
                explored += 1
                if explored > self.max_states:
                    raise VerifierError(
                        "program too complex (state limit exceeded)"
                    )
                if self.collect_facts:
                    entry = facts.setdefault(nxt_pc, [])
                    if len(entry) < MAX_FACTS_PER_INSN:
                        entry.append(nxt_state.describe())
                gray.add(key)
                frames.append(_Frame(nxt_pc, nxt_state, key))
        except VerifierError as exc:
            self._enrich_error(exc, prog, frames)
            raise

        invariants = self._prove_widened_loops(prog)
        annotations = ProofAnnotations(
            safe_mem=frozenset(self._safe_mem),
            safe_div=frozenset(self._safe_div),
            loop_bounds=dict(self._trips),
            states_explored=explored,
            states_pruned=pruned,
            facts=facts,
            loop_invariants=invariants,
            widened_steps=self._widened_step_budget(prog, invariants),
        )
        stats = VerifierStats(
            states_explored=explored,
            checks_elided=annotations.checks_elided,
            loops_bounded=len(self._trips),
            max_trip_count=max(self._trips.values(), default=0),
            states_pruned=pruned,
            loops_widened=len(invariants),
            fixpoint_iters=fixpoint_iters,
        )
        return VerifiedProgram(prog=prog, stats=stats, annotations=annotations)

    # -- loop widening ----------------------------------------------------

    def _join_into_invariant(
        self, header: int, state: AbstractState, from_pc: int
    ) -> AbstractState:
        """Merge an edge into a widened loop header.  Returns the header
        invariant when it already covers ``state`` (routing the edge to
        the canonical header state); raises :class:`_NeedsWidening` to
        restart exploration when the invariant must grow."""
        inv = self._invariants.get(header)
        if inv is None:
            self._invariants[header] = state
            return state
        if inv.key() == state.key():
            return inv
        joined = state_join(inv, state)
        if joined is None:
            err = VerifierError(
                f"loop at insn {header}: cannot join abstract states "
                "across the back-edge (live acquired references differ "
                "between iterations)",
                from_pc,
            )
            err.loop_header = header
            err.invariant_text = inv.describe()
            raise err
        if joined.key() == inv.key():
            return inv
        n = self._join_counts.get(header, 0) + 1
        self._join_counts[header] = n
        if n > WIDEN_JOINS:
            joined = state_widen(inv, joined)
        raise _NeedsWidening(header, joined, inv)

    @staticmethod
    def _cycle_header(
        frames: List[_Frame], key: Tuple
    ) -> Optional[Tuple[int, AbstractState]]:
        """A repeating state closed a cycle via a *forward* edge: walk
        the on-stack segment of that cycle (from the gray ancestor down)
        and return the target of the first back-edge inside it — that is
        the loop header worth widening."""
        start = None
        for i, fr in enumerate(frames):
            if fr.key == key:
                start = i
                break
        if start is None:
            return None
        for i in range(start, len(frames) - 1):
            nxt = frames[i + 1]
            if nxt.pc <= frames[i].pc:
                return nxt.pc, nxt.state
        return None

    def _prove_widened_loops(
        self, prog: Program
    ) -> Dict[int, LoopInvariant]:
        """Widening alone proves safety, not termination: for each
        widened loop actually closed by a back-edge, derive a concrete
        trip bound from a monotone-counter progress argument, or reject
        the program."""
        out: Dict[int, LoopInvariant] = {}
        for header in sorted(self._widened_edges):
            inv = self._invariants.get(header)
            if inv is None:
                continue
            srcs = sorted(self._widened_edges[header])
            out[header] = self._prove_one_loop(prog, header, srcs, inv)
        return out

    def _prove_one_loop(
        self,
        prog: Program,
        header: int,
        srcs: List[int],
        inv: AbstractState,
    ) -> LoopInvariant:
        src = max(srcs)

        def fail(msg: str) -> "VerifierError":
            err = VerifierError(
                f"widened loop at insn {header}: {msg} "
                f"(back-edge at insn {src})",
                src,
            )
            err.loop_header = header
            err.invariant_text = inv.describe()
            if header in self._grow_diff:
                err.state_diff = _state_diff(*self._grow_diff[header])
            self._enrich_error(err, prog, [])
            return err

        if len(srcs) != 1:
            raise fail("multiple back-edges reach this header; no single "
                       "progress argument covers them")
        # The body [header, src] must be a DAG apart from the back-edge
        # itself — nested loops inside a widened body are not supported.
        for pc in range(header, src):
            tgt = getattr(prog[pc], "target", None)
            if tgt is not None and tgt <= pc:
                raise fail(f"nested back-edge at insn {pc} inside the "
                           "widened body")

        counter, bound_operand, strict = self._continue_condition(
            prog, header, src
        )
        if counter is None:
            raise fail("no provable progress: the back-edge is not a "
                       "supported bounded-counter loop shape "
                       "(while/do-while on a lt/le/gt/ge test)")

        # The bound operand must be loop-invariant; the counter may only
        # be advanced by constant positive increments.
        for pc in range(header, src + 1):
            insn = prog[pc]
            if isinstance(bound_operand, int) and _writes_reg(
                insn, bound_operand
            ):
                raise fail(f"loop bound register r{bound_operand} is "
                           "modified inside the body")
            if _writes_reg(insn, counter):
                if not (
                    isinstance(insn, Alu)
                    and insn.op == "add"
                    and insn.dst == counter
                    and isinstance(insn.src, Imm)
                    and insn.src.value >= 1
                ):
                    raise fail(
                        f"no provable progress: r{counter} is written at "
                        f"insn {pc} by something other than a constant "
                        "positive increment"
                    )

        inc = self._body_increments(prog, header, src, counter)
        if inc is None:
            raise fail("the loop body has no path back to the back-edge")
        min_inc, max_inc = inc
        if min_inc < 1:
            raise fail(
                f"no provable progress: some header-to-back-edge path "
                f"leaves counter r{counter} unchanged"
            )

        if isinstance(bound_operand, Imm):
            bound = bound_operand.value & ((1 << 64) - 1)
        else:
            breg = inv.regs[bound_operand]
            if breg.kind != SCALAR:
                raise fail(f"loop bound r{bound_operand} is not a scalar "
                           "in the header invariant")
            bound = breg.rng.umax
        if not strict:
            bound += 1  # continue while counter <= bound
        if bound + max_inc > (1 << 64):
            raise fail(f"counter r{counter} may wrap: loop bound {bound} "
                       "is too close to 2^64")
        trips = bound // max(min_inc, 1) + 2
        if trips > MAX_WIDENED_TRIPS:
            raise fail(
                f"derived trip bound {trips} exceeds the widened-loop "
                f"limit {MAX_WIDENED_TRIPS} — mask or bounds-check the "
                "loop bound first"
            )
        return LoopInvariant(
            header=header,
            back_edge=src,
            trip_bound=trips,
            counter_reg=counter,
            invariant=inv.describe(),
        )

    @staticmethod
    def _continue_condition(
        prog: Program, header: int, src: int
    ) -> Tuple[Optional[int], Optional[Union[int, Imm]], bool]:
        """Extract (counter_reg, bound_operand, strict) from the loop's
        continue condition.  ``strict`` means the loop continues while
        ``counter < bound`` (vs ``<=``).  Two supported shapes:

        - do-while: the back-edge is ``JmpIf(op, ..., header)`` and
          continuing means *taking* the branch;
        - while: the back-edge is an unconditional ``Jmp(header)`` and
          the header instruction is the exit test — continuing means
          *falling through* it.
        """
        back = prog[src]
        if isinstance(back, JmpIf) and back.target == header:
            op = back.op
            if op in ("lt", "le"):
                return back.lhs, back.rhs, op == "lt"
            if op in ("gt", "ge") and isinstance(back.rhs, int):
                # counter on the right: continue while rhs < lhs
                return back.rhs, back.lhs, op == "gt"
            return None, None, False
        if isinstance(back, Jmp) and back.target == header:
            head = prog[header]
            if not isinstance(head, JmpIf):
                return None, None, False
            if header <= head.target <= src:
                return None, None, False  # exit branch must leave the loop
            op = head.op
            # Continue = the exit branch NOT taken (its negation).
            if op in ("ge", "gt"):      # not(lhs >= rhs) -> lhs < rhs
                return head.lhs, head.rhs, op == "ge"
            if op in ("le", "lt") and isinstance(head.rhs, int):
                # not(lhs <= rhs) -> rhs < lhs: rhs is the counter
                return head.rhs, head.lhs, op == "le"
            return None, None, False
        return None, None, False

    @staticmethod
    def _body_increments(
        prog: Program, header: int, src: int, counter: int
    ) -> Optional[Tuple[int, int]]:
        """(min, max) total increment applied to ``counter`` over any
        header-to-back-edge path through the body DAG (paths that exit
        the loop don't count — they never traverse the back-edge)."""
        minmax: Dict[int, Tuple[int, int]] = {src: (0, 0)}
        for pc in range(src - 1, header - 1, -1):
            insn = prog[pc]
            k = 0
            if (
                isinstance(insn, Alu)
                and insn.op == "add"
                and insn.dst == counter
                and isinstance(insn.src, Imm)
            ):
                k = insn.src.value
            if isinstance(insn, Exit):
                continue
            if isinstance(insn, Jmp):
                succs = [insn.target] if header <= insn.target <= src else []
            elif isinstance(insn, JmpIf):
                succs = [pc + 1]
                if header <= insn.target <= src:
                    succs.append(insn.target)
            else:
                succs = [pc + 1]
            reach = [minmax[s] for s in succs if s in minmax]
            if not reach:
                continue
            minmax[pc] = (
                min(r[0] for r in reach) + k,
                max(r[1] for r in reach) + k,
            )
        return minmax.get(header)

    def _widened_step_budget(
        self, prog: Program, invariants: Dict[int, LoopInvariant]
    ) -> int:
        """Concrete-step budget contributed by widened loops: proven
        trips times body length, multiplied through any enclosing
        constant-trip loops (whose own traversals are already in the
        explored-states budget, but which re-enter the widened loop once
        per trip)."""
        total = 0
        for header, li in invariants.items():
            body = li.back_edge - header + 1
            mult = 1
            for s_pc, s_trips in self._trips.items():
                tgt = getattr(prog[s_pc], "target", None)
                if tgt is not None and tgt <= header and s_pc >= li.back_edge:
                    mult *= s_trips + 1
            total += (li.trip_bound + 2) * body * mult
        return total

    @staticmethod
    def _prune_points(prog: Program) -> FrozenSet[int]:
        """Join points worth a subsumption check: jump/branch targets
        plus branch fall-throughs — everywhere two paths can meet."""
        pts: Set[int] = set()
        for pc, insn in enumerate(prog):
            if isinstance(insn, Jmp):
                pts.add(insn.target)
            elif isinstance(insn, JmpIf):
                pts.add(insn.target)
                pts.add(pc + 1)
        return frozenset(pts)

    @staticmethod
    def _enrich_error(
        exc: VerifierError, prog: Program, frames: List[_Frame]
    ) -> None:
        """Attach path diagnostics to a rejection (see ``--explain``)."""
        if exc.path is None and frames:
            exc.path = [fr.pc for fr in frames]
        if exc.pc is not None and 0 <= exc.pc < len(prog) and exc.insn_text is None:
            from .disasm import disassemble_one

            exc.insn_text = disassemble_one(prog[exc.pc])
        if exc.state_text is None and frames:
            exc.state_text = frames[-1].state.describe()

    # -- abstract transfer --------------------------------------------------

    def _step(
        self, prog: Program, pc: int, state: AbstractState
    ) -> List[Tuple[int, AbstractState]]:
        insn = prog[pc]
        if isinstance(insn, Mov):
            return [(pc + 1, self._do_mov(insn, state, pc))]
        if isinstance(insn, Alu):
            return [(pc + 1, self._do_alu(insn, state, pc))]
        if isinstance(insn, Load):
            return [(pc + 1, self._do_load(insn, state, pc))]
        if isinstance(insn, Store):
            return [(pc + 1, self._do_store(insn, state, pc))]
        if isinstance(insn, Call):
            return [(pc + 1, self._do_call(insn, state, pc))]
        if isinstance(insn, Jmp):
            return [(insn.target, state)]
        if isinstance(insn, JmpIf):
            return self._do_jmp_if(insn, state, pc)
        if isinstance(insn, Exit):
            self._check_exit(state, pc)
            return []
        raise VerifierError(f"unknown instruction {insn!r}", pc)

    def _operand(self, src: Union[int, Imm], state: AbstractState, pc: int) -> Reg:
        if isinstance(src, Imm):
            return scalar(src.value)
        r = state.reg(src)
        if r.kind == NOT_INIT:
            raise VerifierError(f"read of uninitialized register r{src}", pc)
        return r

    def _do_mov(self, insn: Mov, state: AbstractState, pc: int) -> AbstractState:
        return state.with_reg(insn.dst, self._operand(insn.src, state, pc))

    def _do_alu(self, insn: Alu, state: AbstractState, pc: int) -> AbstractState:
        dst = state.reg(insn.dst)
        if dst.kind == NOT_INIT:
            raise VerifierError(f"ALU on uninitialized register r{insn.dst}", pc)
        src = self._operand(insn.src, state, pc)

        if insn.op in ("div", "mod"):
            if src.kind != SCALAR:
                raise VerifierError("division by a pointer", pc)
            if src.const == 0:
                raise VerifierError("division by zero", pc)
            if not src.rng.is_nonzero:
                raise VerifierError(
                    "possible division by zero (divisor range includes 0)", pc
                )
            self._safe_div.add(pc)

        if insn.op in ("lsh", "rsh") and src.kind == SCALAR:
            c = src.const
            if c is not None and c > 63:
                raise VerifierError(f"shift amount {c} out of range", pc)

        # Pointer arithmetic: ptr +/- scalar with a tracked range.
        if dst.kind == PKT_END:
            raise VerifierError("arithmetic on ctx->data_end is not allowed", pc)
        if dst.is_pointer:
            return state.with_reg(
                insn.dst, self._pointer_alu(insn, dst, src, pc)
            )
        if src.is_pointer:
            raise VerifierError("scalar op with pointer operand is not allowed", pc)

        rng = None
        if insn.op in ("lsh", "rsh") and src.rng.umax > 63:
            # The VM masks shift amounts (& 63); result is unknown.
            rng = unknown_range()
        else:
            from .tnum import alu_range

            rng = alu_range(insn.op, dst.rng, src.rng)
            if rng is None:
                rng = unknown_range()
        return state.with_reg(insn.dst, scalar_range(rng))

    def _pointer_alu(self, insn: Alu, dst: Reg, src: Reg, pc: int) -> Reg:
        if insn.op not in ("add", "sub"):
            raise VerifierError(f"invalid {insn.op} on pointer r{insn.dst}", pc)
        if src.kind != SCALAR:
            raise VerifierError(
                "pointer arithmetic with unknown scalar is not allowed", pc
            )
        if dst.maybe_null:
            raise VerifierError(
                "arithmetic on possibly-NULL pointer before null check", pc
            )
        c = src.const
        if c is not None:
            # Exact offsets never wrap: the VM's pointers carry plain
            # integer offsets, so u64 immediates move the pointer by
            # their full (canonical, non-negative) value.
            delta = c if insn.op == "add" else -c
            return replace(dst, off=dst.off + delta)
        if insn.op != "add":
            raise VerifierError(
                "pointer subtraction of an unknown scalar is not allowed", pc
            )
        if dst.kind not in (PKT_PTR, STACK_PTR):
            raise VerifierError(
                "pointer arithmetic with unknown scalar is only allowed on "
                "packet and stack pointers",
                pc,
            )
        if src.rng.umax >= VAR_OFF_LIMIT:
            raise VerifierError(
                "pointer arithmetic with unknown scalar is not allowed "
                f"(range [{src.rng.umin},{src.rng.umax}] is unbounded; "
                "mask or bounds-check it first)",
                pc,
            )
        from .tnum import alu_range

        var = src.rng if dst.var is None else alu_range("add", dst.var, src.rng)
        if var is None:
            var = unknown_range()
        # A new scalar joins the variable part: mint a fresh identity —
        # earlier data_end proofs no longer cover this pointer.
        return replace(dst, var=var, var_id=next(self._var_counter))

    # -- memory access ------------------------------------------------------

    def _check_mem_access(
        self, base: Reg, off: int, pc: int, write: bool, state: AbstractState
    ) -> None:
        """Prove one 8-byte access in-bounds; records the proof in the
        annotation table (the access is then runtime-check elidable)."""
        lo = base.off + off + base.var_min
        hi = base.off + off + base.var_max
        if base.kind == STACK_PTR:
            if base.var is not None:
                t = base.var.tnum
                if (t.mask & (ACCESS_SIZE - 1)) or (
                    (base.off + off + t.value) % ACCESS_SIZE
                ):
                    raise VerifierError(
                        "variable stack access is not provably "
                        f"{ACCESS_SIZE}-byte aligned",
                        pc,
                    )
            elif lo % ACCESS_SIZE:
                raise VerifierError(f"misaligned stack access at fp{lo:+d}", pc)
            if not (-STACK_SIZE <= lo and hi <= -ACCESS_SIZE):
                raise VerifierError(
                    f"stack access out of bounds at fp[{lo:+d},{hi:+d}]", pc
                )
            self._safe_mem.add(pc)
            return
        if base.kind == PKT_END:
            raise VerifierError("cannot dereference ctx->data_end", pc)
        if base.kind == PKT_PTR:
            # Two ways to prove the upper bound: the global fact (bytes
            # from `data` known accessible) covers the access's maximum
            # position, or a data_end check on a pointer carrying the
            # *same* variable offset proved `data + var + P <= data_end`
            # with this access's fixed part ending at or before P.
            in_bounds = hi + ACCESS_SIZE <= state.pkt_checked
            if not in_bounds and base.var_id is not None:
                proven = dict(state.pkt_vchecked).get(base.var_id, 0)
                in_bounds = base.off + off + ACCESS_SIZE <= proven
            if lo < 0 or not in_bounds:
                raise VerifierError(
                    "packet access out of bounds (missing data_end check "
                    f"for bytes [{lo},{hi + ACCESS_SIZE}), "
                    f"checked={state.pkt_checked})",
                    pc,
                )
            self._safe_mem.add(pc)
            return
        if base.kind in (KPTR, CTX_PTR):
            if base.maybe_null:
                raise VerifierError(
                    "possible NULL dereference (missing null check)", pc
                )
            if base.kind == KPTR:
                region = base.size if base.size is not None else KPTR_REGION_SIZE
            else:
                region = CTX_REGION_SIZE
            if not (0 <= lo and hi <= region - ACCESS_SIZE):
                raise VerifierError(
                    f"kernel memory access out of bounds at +{lo}", pc
                )
            self._safe_mem.add(pc)
            return
        raise VerifierError(f"memory access via non-pointer ({base.kind})", pc)

    def _stack_slots_in_range(
        self, state: AbstractState, lo: int, hi: int
    ) -> List[Tuple[int, Optional[Reg]]]:
        return [
            (a, state.stack_slot(a)) for a in range(lo, hi + 1, ACCESS_SIZE)
        ]

    def _do_load(self, insn: Load, state: AbstractState, pc: int) -> AbstractState:
        base = state.reg(insn.base)
        if base.kind == NOT_INIT:
            raise VerifierError(f"load via uninitialized register r{insn.base}", pc)
        self._check_mem_access(base, insn.off, pc, write=False, state=state)
        if base.kind == STACK_PTR:
            lo = base.off + insn.off + base.var_min
            hi = base.off + insn.off + base.var_max
            if base.var is None:
                slot = state.stack_slot(lo)
                if slot is None:
                    raise VerifierError(
                        f"read of uninitialized stack slot fp{lo:+d}", pc
                    )
                return state.with_reg(insn.dst, slot)
            # Variable-offset read: every reachable slot must be an
            # initialized scalar (a spilled pointer read through a
            # variable offset would type-confuse the program).
            for addr, slot in self._stack_slots_in_range(state, lo, hi):
                if slot is None:
                    raise VerifierError(
                        "variable-offset read of possibly-uninitialized "
                        f"stack slot fp{addr:+d}",
                        pc,
                    )
                if slot.kind != SCALAR:
                    raise VerifierError(
                        "variable-offset read may alias a spilled pointer "
                        f"at fp{addr:+d}",
                        pc,
                    )
            return state.with_reg(insn.dst, SCALAR_UNKNOWN)
        if base.kind == CTX_PTR:
            addr = base.off + insn.off
            if addr == CTX_OFF_DATA:
                return state.with_reg(insn.dst, Reg(kind=PKT_PTR, off=0))
            if addr == CTX_OFF_DATA_END:
                return state.with_reg(insn.dst, Reg(kind=PKT_END))
        return state.with_reg(insn.dst, SCALAR_UNKNOWN)

    def _do_store(self, insn: Store, state: AbstractState, pc: int) -> AbstractState:
        base = state.reg(insn.base)
        if base.kind == NOT_INIT:
            raise VerifierError(f"store via uninitialized register r{insn.base}", pc)
        value = self._operand(insn.src, state, pc)
        self._check_mem_access(base, insn.off, pc, write=True, state=state)
        if base.kind == STACK_PTR:
            lo = base.off + insn.off + base.var_min
            hi = base.off + insn.off + base.var_max
            if base.var is None:
                return state.with_stack_slot(lo, value)
            # Weak update through a variable offset: the store lands in
            # *one* of the slots, so no slot may hold a pointer (it
            # could be silently corrupted) and every initialized scalar
            # slot degrades to an unknown scalar.
            if value.is_pointer:
                raise VerifierError(
                    "cannot spill a pointer through a variable offset", pc
                )
            new_state = state
            for addr, slot in self._stack_slots_in_range(state, lo, hi):
                if slot is None:
                    continue
                if slot.kind != SCALAR:
                    raise VerifierError(
                        "variable-offset store may corrupt a spilled "
                        f"pointer at fp{addr:+d}",
                        pc,
                    )
                new_state = new_state.with_stack_slot(addr, SCALAR_UNKNOWN)
            return new_state
        if value.is_pointer:
            raise VerifierError(
                "cannot store a pointer into kernel memory (use bpf_kptr_xchg)", pc
            )
        return state

    # -- calls --------------------------------------------------------------

    def _do_call(self, insn: Call, state: AbstractState, pc: int) -> AbstractState:
        meta = self.registry.get(insn.func)
        if meta is None:
            raise VerifierError(f"call to unknown kfunc {insn.func!r}", pc)
        if meta.prog_types is not None and self.prog_type not in meta.prog_types:
            raise VerifierError(
                f"kfunc {insn.func!r} not allowed for {self.prog_type} programs", pc
            )
        state = self._check_call_args(meta, state, pc)
        # The declared size constant must be read before the call
        # clobbers the argument registers.
        kptr_size = None
        if meta.ret == RET_KPTR and meta.size_arg is not None:
            c = state.reg(R1 + meta.size_arg).const
            if c is not None:
                kptr_size = min(c, KPTR_REGION_SIZE)
        state = self._apply_release(meta, state, pc)
        state = self._clobber_caller_saved(state)
        return self._apply_return(meta, state, pc, kptr_size)

    def _check_call_args(
        self, meta: KfuncMeta, state: AbstractState, pc: int
    ) -> AbstractState:
        for i, kind in enumerate(meta.args):
            reg_idx = R1 + i
            r = state.reg(reg_idx)
            if r.kind == NOT_INIT:
                raise VerifierError(
                    f"{meta.name}: arg {i + 1} (r{reg_idx}) is uninitialized", pc
                )
            if kind == ARG_SCALAR:
                if r.kind != SCALAR:
                    raise VerifierError(
                        f"{meta.name}: arg {i + 1} must be a scalar", pc
                    )
            elif kind == ARG_CONST:
                if r.kind != SCALAR or r.const is None:
                    raise VerifierError(
                        f"{meta.name}: arg {i + 1} must be a known constant", pc
                    )
            elif kind == ARG_PTR:
                if not r.is_pointer:
                    raise VerifierError(
                        f"{meta.name}: arg {i + 1} must be a pointer", pc
                    )
                if r.maybe_null:
                    raise VerifierError(
                        f"{meta.name}: arg {i + 1} may be NULL (missing check)", pc
                    )
            elif kind == ARG_KPTR:
                if r.kind != KPTR:
                    raise VerifierError(
                        f"{meta.name}: arg {i + 1} must be a kernel pointer", pc
                    )
                if r.maybe_null:
                    raise VerifierError(
                        f"{meta.name}: arg {i + 1} may be NULL (missing check)", pc
                    )
        return state

    def _apply_release(
        self, meta: KfuncMeta, state: AbstractState, pc: int
    ) -> AbstractState:
        if not meta.releases:
            return state
        r1 = state.reg(R1 + meta.release_arg)
        if r1.ref_id is None or r1.ref_id not in state.refs:
            raise VerifierError(
                f"{meta.name}: releasing a pointer that was not acquired "
                "(possible double free)",
                pc,
            )
        released = r1.ref_id
        regs = tuple(
            Reg() if r.ref_id == released else r for r in state.regs
        )
        stack = tuple(
            (off, Reg() if r.ref_id == released else r) for off, r in state.stack
        )
        return AbstractState(
            regs=regs,
            stack=stack,
            refs=state.refs - {released},
            pkt_checked=state.pkt_checked,
        )

    @staticmethod
    def _clobber_caller_saved(state: AbstractState) -> AbstractState:
        regs = list(state.regs)
        for i in range(R1, R1 + 5):
            regs[i] = Reg()
        return replace(state, regs=tuple(regs))

    _ref_counter = itertools.count(1)
    _var_counter = itertools.count(1)

    def _apply_return(
        self, meta: KfuncMeta, state: AbstractState, pc: int,
        kptr_size: Optional[int] = None,
    ) -> AbstractState:
        if meta.ret == RET_SCALAR:
            return state.with_reg(R0, SCALAR_UNKNOWN)
        if meta.ret == RET_VOID:
            return state.with_reg(R0, Reg())
        # RET_KPTR
        ref_id = None
        refs = state.refs
        if meta.acquires:
            ref_id = next(self._ref_counter)
            refs = refs | {ref_id}
        r0 = Reg(kind=KPTR, maybe_null=meta.may_return_null, ref_id=ref_id,
                 size=kptr_size)
        return replace(state.with_reg(R0, r0), refs=refs)

    # -- branches -----------------------------------------------------------

    def _do_jmp_if(
        self, insn: JmpIf, state: AbstractState, pc: int
    ) -> List[Tuple[int, AbstractState]]:
        lhs = state.reg(insn.lhs)
        if lhs.kind == NOT_INIT:
            raise VerifierError(f"branch on uninitialized register r{insn.lhs}", pc)
        rhs = self._operand(insn.rhs, state, pc)

        # Packet-bounds refinement: `(data + N) <op> data_end`, either
        # orientation.
        if lhs.kind == PKT_PTR and rhs.kind == PKT_END:
            return self._pkt_end_cmp(insn.op, lhs, insn.target, pc, state)
        if lhs.kind == PKT_END and rhs.kind == PKT_PTR:
            return self._pkt_end_cmp(
                _FLIP_CMP[insn.op], rhs, insn.target, pc, state
            )
        if rhs.kind == PKT_END or lhs.kind == PKT_END:
            raise VerifierError(
                "data_end may only be compared against a packet pointer", pc
            )

        # NULL-check refinement: `if (ptr ==/!= 0)`.  Successors are
        # ordered fall-through first (like the kernel's DFS, which
        # pushes the branch and continues straight-line).
        if lhs.is_pointer and rhs.kind == SCALAR and rhs.const == 0:
            if insn.op == "eq":
                null_state = self._mark_null(state, insn.lhs, pc)
                ok_state = state.with_reg(insn.lhs, replace(lhs, maybe_null=False))
                return [(pc + 1, ok_state), (insn.target, null_state)]
            if insn.op == "ne":
                ok_state = state.with_reg(insn.lhs, replace(lhs, maybe_null=False))
                null_state = self._mark_null(state, insn.lhs, pc)
                return [(pc + 1, null_state), (insn.target, ok_state)]
            raise VerifierError("pointer comparison must use eq/ne against 0", pc)
        if lhs.is_pointer or rhs.is_pointer:
            raise VerifierError("pointer comparison with non-zero value", pc)

        # Scalar comparison: refine ranges on both outcomes, pruning
        # statically infeasible branches (subsumes constant folding).
        if isinstance(insn.rhs, int) and insn.rhs == insn.lhs:
            taken = insn.op in ("eq", "le", "ge")
            return [(insn.target if taken else pc + 1, state)]
        out: List[Tuple[int, AbstractState]] = []
        for taken, nxt in ((False, pc + 1), (True, insn.target)):
            refined = refine_cmp(insn.op, lhs.rng, rhs.rng, taken)
            if refined is None:
                continue
            new_lhs, new_rhs = refined
            st = state.with_reg(insn.lhs, replace(lhs, rng=new_lhs))
            if isinstance(insn.rhs, int):
                st = st.with_reg(insn.rhs, replace(rhs, rng=new_rhs))
            out.append((nxt, st))
        if not out:
            raise VerifierError("comparison with no feasible outcome", pc)
        return out

    def _pkt_end_cmp(
        self, op: str, ptr: Reg, target: int, pc: int, state: AbstractState
    ) -> List[Tuple[int, AbstractState]]:
        """`ptr <op> data_end`: the in-bounds branch proves that at
        least ``ptr.off + ptr.var_min`` bytes of packet are accessible
        (the *minimum* possible pointer position — sound for pointers
        carrying a variable offset)."""
        proven = max(0, ptr.off + ptr.var_min, state.pkt_checked)
        ok = replace(state, pkt_checked=proven)
        if ptr.var_id is not None and ptr.off > 0:
            vchecked = dict(state.pkt_vchecked)
            vchecked[ptr.var_id] = max(vchecked.get(ptr.var_id, 0), ptr.off)
            ok = replace(ok, pkt_vchecked=tuple(sorted(vchecked.items())))
        if op in ("gt", "ge"):
            # Taken: out of bounds (no info). Fallthrough: in bounds.
            return [(pc + 1, ok), (target, state)]
        if op in ("le", "lt"):
            return [(pc + 1, state), (target, ok)]
        raise VerifierError(
            "packet bound checks must use lt/le/gt/ge against data_end", pc
        )

    def _mark_null(self, state: AbstractState, reg_idx: int, pc: int) -> AbstractState:
        """On the NULL branch the pointer is dead; an acquired ref that
        is NULL never materialized, so drop it from the live set."""
        r = state.reg(reg_idx)
        refs = state.refs
        if r.ref_id is not None:
            refs = refs - {r.ref_id}
        return replace(state.with_reg(reg_idx, scalar(0)), refs=refs)

    def _check_exit(self, state: AbstractState, pc: int) -> None:
        r0 = state.reg(R0)
        if r0.kind != SCALAR:
            raise VerifierError("R0 must hold a scalar return value at exit", pc)
        if state.refs:
            raise VerifierError(
                f"{len(state.refs)} unreleased reference(s) at exit (resource leak)",
                pc,
            )
