"""Abstract scalar domains for the verifier: tnums and intervals.

The kernel verifier's acceptance power rests on *value tracking*: every
scalar register carries a **tnum** ("tracked number": per-bit
known/unknown state) plus unsigned and signed interval bounds, refined
at conditional branches.  That is what lets it accept guarded packet
access (``if data + len <= data_end``), variable-offset access into a
checked region, shift amounts proven `< 64`, and divisors proven
non-zero — and what lets statically proven checks be *elided* from the
hot path (the paper's lazy-checking story, §4.1/§4.4).

This module reproduces that domain for the simulated IR:

- :class:`Tnum` — known-bits arithmetic, a faithful port of the
  kernel's ``tnum.c`` algebra (add/sub/mul/and/or/xor/shifts,
  ``tnum_range``, intersection).
- :class:`ScalarRange` — a tnum plus ``[umin, umax]`` (u64) and
  ``[smin, smax]`` (s64) interval bounds, kept mutually consistent the
  way ``__update_reg_bounds``/``__reg_deduce_bounds`` do, with
  transfer functions for every ALU op of the IR and comparison-driven
  refinement for every jump op.

All arithmetic is 64-bit: values live in the u64 domain (wrapped
``& MASK64``) exactly as the VM computes them; signed bounds are the
two's-complement reading of the same bits.  The IR's jump ops compare
unsigned (the VM masks operands), so branch refinement narrows the
unsigned bounds and re-derives the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

MASK64 = (1 << 64) - 1
U64_MAX = MASK64
S64_MIN = -(1 << 63)
S64_MAX = (1 << 63) - 1


def _u64(v: int) -> int:
    return v & MASK64


def _s64(v: int) -> int:
    v &= MASK64
    return v - (1 << 64) if v >= (1 << 63) else v


@dataclass(frozen=True)
class Tnum:
    """A tracked number: ``value`` holds the known bits, ``mask`` marks
    the unknown ones (1 = unknown).  Invariant: ``value & mask == 0``.
    """

    value: int
    mask: int

    def __post_init__(self) -> None:
        if self.value & self.mask:
            raise ValueError("tnum invariant violated: value & mask != 0")

    # -- predicates ----------------------------------------------------

    @property
    def is_const(self) -> bool:
        return self.mask == 0

    @property
    def min_value(self) -> int:
        """Smallest u64 consistent with the known bits."""
        return self.value

    @property
    def max_value(self) -> int:
        """Largest u64 consistent with the known bits."""
        return self.value | self.mask

    def contains(self, v: int) -> bool:
        """Could this tnum be the concrete value ``v``?"""
        return (v & ~self.mask) == self.value

    def known_zero_bits(self, bits: int) -> bool:
        """Are the low ``bits`` bits known to be zero?"""
        low = (1 << bits) - 1
        return (self.mask & low) == 0 and (self.value & low) == 0

    # -- algebra (ports of kernel tnum.c) ------------------------------

    def add(self, o: "Tnum") -> "Tnum":
        sm = _u64(self.mask + o.mask)
        sv = _u64(self.value + o.value)
        sigma = _u64(sm + sv)
        chi = sigma ^ sv
        mu = chi | self.mask | o.mask
        return Tnum(sv & ~mu & MASK64, _u64(mu))

    def sub(self, o: "Tnum") -> "Tnum":
        dv = _u64(self.value - o.value)
        alpha = _u64(dv + self.mask)
        beta = _u64(dv - o.mask)
        chi = alpha ^ beta
        mu = chi | self.mask | o.mask
        return Tnum(dv & ~mu & MASK64, _u64(mu))

    def and_(self, o: "Tnum") -> "Tnum":
        alpha = self.value | self.mask
        beta = o.value | o.mask
        v = self.value & o.value
        return Tnum(v, alpha & beta & ~v & MASK64)

    def or_(self, o: "Tnum") -> "Tnum":
        v = self.value | o.value
        mu = self.mask | o.mask
        return Tnum(v, mu & ~v & MASK64)

    def xor(self, o: "Tnum") -> "Tnum":
        v = self.value ^ o.value
        mu = self.mask | o.mask
        return Tnum(v & ~mu & MASK64, _u64(mu))

    def lshift(self, shift: int) -> "Tnum":
        return Tnum(_u64(self.value << shift), _u64(self.mask << shift))

    def rshift(self, shift: int) -> "Tnum":
        return Tnum(self.value >> shift, self.mask >> shift)

    def mul(self, o: "Tnum") -> "Tnum":
        """Kernel ``tnum_mul``: shift-and-add over the known/unknown bits
        of ``self``, accumulating uncertainty through tnum addition."""
        a, b = self, o
        acc_v = _u64(a.value * b.value)
        acc_m = Tnum(0, 0)
        while a.value or a.mask:
            if a.value & 1:
                acc_m = acc_m.add(Tnum(0, b.mask))
            elif a.mask & 1:
                acc_m = acc_m.add(Tnum(0, _u64(b.value | b.mask)))
            a = a.rshift(1)
            b = b.lshift(1)
        return tnum_const(acc_v).add(acc_m)

    def union(self, o: "Tnum") -> "Tnum":
        """Least upper bound (kernel ``tnum_union``): a bit stays known
        only when both operands know it *and* agree on its value."""
        v = self.value & o.value
        mu = self.mask | o.mask | (self.value ^ o.value)
        return Tnum(v & ~mu & MASK64, _u64(mu))

    def intersect(self, o: "Tnum") -> Optional["Tnum"]:
        """Combine two views of the same value; ``None`` if contradictory
        (some bit known 0 in one view and known 1 in the other)."""
        known_self = ~self.mask & MASK64
        known_o = ~o.mask & MASK64
        conflict = known_self & known_o & (self.value ^ o.value)
        if conflict:
            return None
        v = self.value | o.value
        mu = self.mask & o.mask
        return Tnum(v & ~mu & MASK64, mu)

    def __str__(self) -> str:  # pragma: no cover - rendering aid
        if self.is_const:
            return f"{self.value:#x}"
        return f"(value={self.value:#x}, mask={self.mask:#x})"


TNUM_UNKNOWN = Tnum(0, MASK64)


def tnum_const(v: int) -> Tnum:
    return Tnum(_u64(v), 0)


def tnum_range(umin: int, umax: int) -> Tnum:
    """The tightest tnum containing every value in ``[umin, umax]``:
    the shared high-bit prefix is known, the rest unknown (kernel
    ``tnum_range``)."""
    chi = umin ^ umax
    bits = chi.bit_length()
    if bits > 63:
        return TNUM_UNKNOWN
    delta = (1 << bits) - 1
    return Tnum(umin & ~delta, delta)


@dataclass(frozen=True)
class ScalarRange:
    """Full abstract value of one scalar: tnum + u64/s64 intervals.

    The constructor does **not** normalize; build values through
    :func:`const_range`, :func:`unknown_range`, :func:`range_from_bounds`
    or the transfer methods, all of which call :meth:`normalized`.
    """

    tnum: Tnum = TNUM_UNKNOWN
    umin: int = 0
    umax: int = U64_MAX
    smin: int = S64_MIN
    smax: int = S64_MAX

    # -- consistency ---------------------------------------------------

    def normalized(self) -> Optional["ScalarRange"]:
        """Propagate information between the tnum and both interval
        views; ``None`` if the views contradict (dead branch)."""
        umin = max(self.umin, self.tnum.min_value)
        umax = min(self.umax, self.tnum.max_value)
        smin, smax = self.smin, self.smax
        # u64 <-> s64: if the unsigned range never crosses the sign bit,
        # both views describe the same integers.
        if umax < (1 << 63):
            smin = max(smin, umin)
            smax = min(smax, umax)
        elif umin >= (1 << 63):
            smin = max(smin, _s64(umin))
            smax = min(smax, _s64(umax))
        # s64 -> u64 when the signed range stays non-negative.
        if smin >= 0:
            umin = max(umin, smin)
            umax = min(umax, smax if smax >= 0 else umax)
        if umin > umax or smin > smax:
            return None
        tnum = self.tnum.intersect(tnum_range(umin, umax))
        if tnum is None:
            return None
        umin = max(umin, tnum.min_value)
        umax = min(umax, tnum.max_value)
        if umin > umax:
            return None
        return ScalarRange(tnum, umin, umax, smin, smax)

    # -- predicates ----------------------------------------------------

    @property
    def const(self) -> Optional[int]:
        """The single concrete u64 value, when fully known."""
        if self.umin == self.umax:
            return self.umin
        if self.tnum.is_const:
            return self.tnum.value
        return None

    @property
    def is_nonzero(self) -> bool:
        """Statically proven != 0 (range or known-bit evidence)."""
        return self.umin > 0 or bool(self.tnum.value)

    def join(self, o: "ScalarRange") -> "ScalarRange":
        """Least upper bound over tnum + both interval views: the
        tightest range of this shape admitting every value either
        operand admits.  Used at loop headers to merge the states of
        successive trips (see :func:`range_join`/:func:`range_widen`)."""
        r = ScalarRange(
            self.tnum.union(o.tnum),
            min(self.umin, o.umin),
            max(self.umax, o.umax),
            min(self.smin, o.smin),
            max(self.smax, o.smax),
        )
        # A join of two reachable (non-empty) ranges is non-empty, so
        # normalization cannot find a contradiction; keep the raw result
        # as a safety net anyway.
        return _canonical(r)

    def key(self) -> Tuple[int, int, int, int]:
        """Hashable identity for state pruning (s64 bounds are derived
        from the same bits, so the u64 view + tnum suffice)."""
        return (self.tnum.value, self.tnum.mask, self.umin, self.umax)

    def __str__(self) -> str:  # pragma: no cover - rendering aid
        c = self.const
        if c is not None:
            return f"{c}"
        parts = [f"[{self.umin},{self.umax}]" if self.umax != U64_MAX or self.umin
                 else "[0,U64MAX]"]
        if self.tnum.mask != MASK64:
            parts.append(f"tnum={self.tnum}")
        if self.smin != S64_MIN or self.smax != S64_MAX:
            parts.append(f"s[{self.smin},{self.smax}]")
        return " ".join(parts)


UNKNOWN_RANGE = ScalarRange()


def range_subsumes(general: ScalarRange, specific: ScalarRange) -> bool:
    """Is every concrete value admitted by ``specific`` also admitted by
    ``general``?  The kernel's ``range_within`` + ``tnum_in`` test that
    powers ``regsafe`` state pruning: if verification succeeded from the
    *general* state, it covers anything reachable in the *specific* one.
    """
    if not (general.umin <= specific.umin and specific.umax <= general.umax):
        return False
    if not (general.smin <= specific.smin and specific.smax <= general.smax):
        return False
    # tnum_in(general, specific): every bit known in `general` must be
    # known — with the same value — in `specific`.
    known = ~general.tnum.mask & MASK64
    if specific.tnum.mask & known:
        return False
    return (general.tnum.value ^ specific.tnum.value) & known == 0


def range_join(a: ScalarRange, b: ScalarRange) -> ScalarRange:
    """Module-level alias for :meth:`ScalarRange.join`."""
    return a.join(b)


def range_widen(old: ScalarRange, new: ScalarRange) -> ScalarRange:
    """Widening operator for loop fixpoints: ``new`` is presumed to be
    ``old`` joined with the latest back-edge state.  Any interval bound
    that grew since ``old`` jumps straight to its type limit instead of
    creeping one trip at a time — that is what makes data-dependent
    loops converge in O(1) abstract states rather than one state per
    trip.  A tnum that grew since ``old`` is widened to the coarsest
    view that still proves its low-bit alignment (trailing known-zero
    bits survive — that is what keeps variable-offset stack proofs
    alive through widening); letting the union's mask creep instead
    would cost up to one fixpoint restart per bit.
    """
    umin = new.umin if new.umin >= old.umin else 0
    umax = new.umax if new.umax <= old.umax else U64_MAX
    smin = new.smin if new.smin >= old.smin else S64_MIN
    smax = new.smax if new.smax <= old.smax else S64_MAX
    t = new.tnum
    if t != old.tnum:
        nonzero = t.value | t.mask
        z = 64 if nonzero == 0 else (nonzero & -nonzero).bit_length() - 1
        t = Tnum(0, (MASK64 >> z) << z if z < 64 else 0)
    return _canonical(ScalarRange(t, umin, umax, smin, smax))


def _canonical(r: ScalarRange) -> ScalarRange:
    """Normalize to a fixpoint.  One ``normalized()`` pass propagates
    facts pairwise between components but may enable further
    tightening (a umax clamped by smax can in turn clamp the tnum, and
    so on); the loop fixpoint compares states by ``key()``, so join and
    widen results must be fully canonical or convergence detection
    would see phantom growth.  Contradictions are impossible for joins
    of non-empty ranges — fall back to the raw value defensively."""
    while True:
        n = r.normalized()
        if n is None:
            return r
        if (n.tnum == r.tnum and n.umin == r.umin and n.umax == r.umax
                and n.smin == r.smin and n.smax == r.smax):
            return n
        r = n


def unknown_range() -> ScalarRange:
    return UNKNOWN_RANGE


def const_range(v: int) -> ScalarRange:
    v = _u64(v)
    return ScalarRange(tnum_const(v), v, v, _s64(v), _s64(v))


def range_from_bounds(umin: int, umax: int) -> ScalarRange:
    r = ScalarRange(tnum_range(umin, umax), umin, umax).normalized()
    assert r is not None
    return r


# -- ALU transfer functions ------------------------------------------------


def _bounded(lo: int, hi: int, tnum: Tnum) -> Optional[ScalarRange]:
    return ScalarRange(tnum, lo, hi).normalized()


def alu_range(op: str, a: ScalarRange, b: ScalarRange) -> Optional[ScalarRange]:
    """Abstract result of ``a <op> b`` in the wrapped-u64 domain the VM
    computes in.  Returns ``None`` only for contradictions (never raised
    in practice — callers treat it as unknown)."""
    ca, cb = a.const, b.const
    if ca is not None and cb is not None:
        v = _const_alu(op, ca, cb)
        if v is not None:
            return const_range(v)

    if op == "add":
        t = a.tnum.add(b.tnum)
        if a.umax + b.umax <= U64_MAX:
            return _bounded(a.umin + b.umin, a.umax + b.umax, t)
        return ScalarRange(t).normalized()
    if op == "sub":
        t = a.tnum.sub(b.tnum)
        if a.umin >= b.umax:
            return _bounded(a.umin - b.umax, a.umax - b.umin, t)
        return ScalarRange(t).normalized()
    if op == "mul":
        t = a.tnum.mul(b.tnum)
        if a.umax * b.umax <= U64_MAX:
            return _bounded(a.umin * b.umin, a.umax * b.umax, t)
        return ScalarRange(t).normalized()
    if op == "div":
        # Callers guarantee b proven non-zero before asking.
        if b.umin > 0:
            return _bounded(a.umin // b.umax, a.umax // b.umin, TNUM_UNKNOWN)
        return ScalarRange(TNUM_UNKNOWN, 0, a.umax).normalized()
    if op == "mod":
        if b.umin > 0:
            return _bounded(0, min(a.umax, b.umax - 1), TNUM_UNKNOWN)
        return ScalarRange(TNUM_UNKNOWN, 0, a.umax).normalized()
    if op == "and":
        t = a.tnum.and_(b.tnum)
        return _bounded(t.min_value, min(a.umax, b.umax, t.max_value), t)
    if op == "or":
        t = a.tnum.or_(b.tnum)
        return _bounded(max(a.umin, b.umin, t.min_value), t.max_value, t)
    if op == "xor":
        t = a.tnum.xor(b.tnum)
        return _bounded(t.min_value, t.max_value, t)
    if op == "lsh":
        # Callers guarantee b.umax < 64.
        if b.const is not None:
            k = b.const
            t = a.tnum.lshift(k)
            if a.umax <= (U64_MAX >> k):
                return _bounded(a.umin << k, a.umax << k, t)
            return ScalarRange(t).normalized()
        return ScalarRange(TNUM_UNKNOWN).normalized()
    if op == "rsh":
        if b.const is not None:
            k = b.const
            return _bounded(a.umin >> k, a.umax >> k, a.tnum.rshift(k))
        return _bounded(0, a.umax, TNUM_UNKNOWN)
    raise ValueError(f"unknown ALU op {op!r}")


def _const_alu(op: str, a: int, b: int) -> Optional[int]:
    if op == "add":
        return _u64(a + b)
    if op == "sub":
        return _u64(a - b)
    if op == "mul":
        return _u64(a * b)
    if op == "div":
        return a // b if b else None
    if op == "mod":
        return a % b if b else None
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "lsh":
        return _u64(a << (b & 63))
    if op == "rsh":
        return a >> (b & 63)
    return None


# -- comparison-driven refinement ------------------------------------------

_NEGATE = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt", "le": "gt", "gt": "le"}


def refine_cmp(
    op: str, a: ScalarRange, b: ScalarRange, taken: bool
) -> Optional[Tuple[ScalarRange, ScalarRange]]:
    """Narrow ``a`` and ``b`` given that ``a <op> b`` evaluated to
    ``taken`` (unsigned comparison, as the VM performs it).  Returns the
    refined pair, or ``None`` if the outcome is infeasible — the caller
    then prunes that branch as dead code.
    """
    if not taken:
        op = _NEGATE[op]
    if op == "eq":
        lo, hi = max(a.umin, b.umin), min(a.umax, b.umax)
        if lo > hi:
            return None
        t = a.tnum.intersect(b.tnum)
        if t is None:
            return None
        r = ScalarRange(t, lo, hi, max(a.smin, b.smin), min(a.smax, b.smax))
        r = r.normalized()
        if r is None:
            return None
        return r, r
    if op == "ne":
        ca, cb = a.const, b.const
        if ca is not None and cb is not None and ca == cb:
            return None
        # Trim a touching endpoint: x != c narrows [c, hi] to [c+1, hi].
        na, nb = a, b
        if cb is not None:
            na = _trim_endpoint(a, cb)
            if na is None:
                return None
        if ca is not None:
            nb = _trim_endpoint(b, ca)
            if nb is None:
                return None
        return na, nb
    if op == "lt":      # a < b
        if a.umin >= b.umax:
            return None
        na = _clamp(a, a.umin, min(a.umax, b.umax - 1))
        nb = _clamp(b, max(b.umin, a.umin + 1), b.umax)
    elif op == "le":    # a <= b
        if a.umin > b.umax:
            return None
        na = _clamp(a, a.umin, min(a.umax, b.umax))
        nb = _clamp(b, max(b.umin, a.umin), b.umax)
    elif op == "gt":    # a > b
        if a.umax <= b.umin:
            return None
        na = _clamp(a, max(a.umin, b.umin + 1), a.umax)
        nb = _clamp(b, b.umin, min(b.umax, a.umax - 1))
    elif op == "ge":    # a >= b
        if a.umax < b.umin:
            return None
        na = _clamp(a, max(a.umin, b.umin), a.umax)
        nb = _clamp(b, b.umin, min(b.umax, a.umax))
    else:
        raise ValueError(f"unknown jump op {op!r}")
    if na is None or nb is None:
        return None
    return na, nb


def _clamp(r: ScalarRange, umin: int, umax: int) -> Optional[ScalarRange]:
    if umin > umax:
        return None
    return ScalarRange(r.tnum, max(r.umin, umin), min(r.umax, umax),
                       r.smin, r.smax).normalized()


def _trim_endpoint(r: ScalarRange, c: int) -> Optional[ScalarRange]:
    umin, umax = r.umin, r.umax
    if umin == c:
        umin += 1
    if umax == c:
        umax -= 1
    if umin > umax:
        return None
    return ScalarRange(r.tnum, umin, umax, r.smin, r.smax).normalized()
