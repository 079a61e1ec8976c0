"""Unit tests for the verifier's value-tracking domains.

Tnum (known-bits) and interval arithmetic are checked two ways: exact
expectations on hand-picked cases, and a randomized soundness sweep —
for random concrete values inside two abstract inputs, the concrete
ALU result must land inside the abstract output (the only property an
abstract domain owes anyone).
"""

import random

import pytest

from repro.ebpf.tnum import (
    MASK64,
    Tnum,
    TNUM_UNKNOWN,
    alu_range,
    const_range,
    range_from_bounds,
    refine_cmp,
    tnum_const,
    tnum_range,
    unknown_range,
)

U64 = lambda x: x & MASK64


class TestTnum:
    def test_const_is_fully_known(self):
        t = tnum_const(0xDEAD)
        assert t.mask == 0
        assert t.value == 0xDEAD
        assert t.contains(0xDEAD)
        assert not t.contains(0xDEAE)

    def test_unknown_contains_everything(self):
        assert TNUM_UNKNOWN.contains(0)
        assert TNUM_UNKNOWN.contains(MASK64)
        assert TNUM_UNKNOWN.mask == MASK64

    def test_range_covers_endpoints(self):
        t = tnum_range(3, 17)
        for v in (3, 7, 16, 17):
            assert t.contains(v)

    def test_and_clears_known_zero_bits(self):
        t = TNUM_UNKNOWN.and_(tnum_const(7))
        assert t.value == 0
        assert t.mask == 7          # only the low 3 bits can be set
        assert not t.known_zero_bits(3)
        # A left shift by 3 makes the low 3 bits provably zero — the
        # alignment fact variable-offset stack access relies on.
        assert TNUM_UNKNOWN.lshift(3).known_zero_bits(3)

    def test_min_max_value(self):
        t = tnum_range(8, 24)
        assert t.min_value <= 8
        assert t.max_value >= 24

    def test_intersect_of_disjoint_consts_is_none(self):
        assert tnum_const(1).intersect(tnum_const(2)) is None

    @pytest.mark.parametrize("op", ["add", "sub", "and_", "or_", "xor", "mul"])
    def test_binary_ops_sound(self, op):
        rng = random.Random(42)
        for _ in range(200):
            a_val, b_val = rng.getrandbits(64), rng.getrandbits(64)
            a_mask, b_mask = rng.getrandbits(64), rng.getrandbits(64)
            ta = Tnum(a_val & ~a_mask, a_mask)
            tb = Tnum(b_val & ~b_mask, b_mask)
            # Any concrete members of the tnums...
            ca = ta.value | (rng.getrandbits(64) & ta.mask)
            cb = tb.value | (rng.getrandbits(64) & tb.mask)
            out = getattr(ta, op)(tb)
            concrete = {
                "add": ca + cb, "sub": ca - cb, "mul": ca * cb,
                "and_": ca & cb, "or_": ca | cb, "xor": ca ^ cb,
            }[op]
            assert out.contains(U64(concrete)), (op, hex(ca), hex(cb))

    @pytest.mark.parametrize("op", ["lshift", "rshift"])
    def test_shift_sound(self, op):
        rng = random.Random(43)
        for _ in range(100):
            mask = rng.getrandbits(64)
            t = Tnum(rng.getrandbits(64) & ~mask, mask)
            c = t.value | (rng.getrandbits(64) & t.mask)
            sh = rng.randrange(64)
            out = getattr(t, op)(sh)
            concrete = U64(c << sh) if op == "lshift" else c >> sh
            assert out.contains(concrete)


class TestScalarRange:
    def test_const_range(self):
        r = const_range(-16)
        assert r.const == U64(-16)
        assert r.umin == r.umax == U64(-16)

    def test_unknown_range_spans_u64(self):
        r = unknown_range()
        assert r.umin == 0 and r.umax == MASK64
        assert r.const is None

    def test_is_nonzero(self):
        one_to_eight = alu_range(
            "add", alu_range("and", unknown_range(), const_range(7)),
            const_range(1),
        )
        assert one_to_eight.is_nonzero
        assert not unknown_range().is_nonzero

    @pytest.mark.parametrize(
        "op", ["add", "sub", "mul", "and", "or", "xor", "lsh", "rsh"]
    )
    def test_alu_range_sound(self, op):
        rng = random.Random(44)
        for _ in range(200):
            lo_a, hi_a = sorted((rng.getrandbits(16), rng.getrandbits(16)))
            lo_b, hi_b = sorted((rng.getrandbits(6), rng.getrandbits(6)))
            ra = range_from_bounds(lo_a, hi_a)
            rb = range_from_bounds(lo_b, hi_b)
            out = alu_range(op, ra, rb)
            ca, cb = rng.randint(lo_a, hi_a), rng.randint(lo_b, hi_b)
            concrete = {
                "add": ca + cb, "sub": ca - cb, "mul": ca * cb,
                "and": ca & cb, "or": ca | cb, "xor": ca ^ cb,
                "lsh": ca << (cb & 63), "rsh": ca >> (cb & 63),
            }[op]
            concrete = U64(concrete)
            assert out.umin <= concrete <= out.umax, (op, ca, cb)
            assert out.tnum.contains(concrete), (op, ca, cb)

    def test_div_mod_range(self):
        a = range_from_bounds(100, 200)
        b = range_from_bounds(2, 5)
        d = alu_range("div", a, b)
        assert d.umin <= 100 // 5 and d.umax >= 200 // 2
        m = alu_range("mod", a, b)
        assert m.umax <= 4


class TestRefineCmp:
    def test_lt_refines_both_sides(self):
        a = range_from_bounds(0, 100)
        b = const_range(10)
        taken = refine_cmp("lt", a, b, taken=True)
        assert taken is not None
        na, _ = taken
        assert na.umax == 9
        untaken = refine_cmp("lt", a, b, taken=False)
        na, _ = untaken
        assert na.umin == 10

    def test_eq_intersects(self):
        a = range_from_bounds(0, 100)
        b = const_range(42)
        na, nb = refine_cmp("eq", a, b, taken=True)
        assert na.const == 42

    def test_infeasible_branch_returns_none(self):
        a = const_range(5)
        b = const_range(10)
        assert refine_cmp("gt", a, b, taken=True) is None
        assert refine_cmp("lt", a, b, taken=False) is None

    def test_refinement_sound(self):
        rng = random.Random(45)
        ops = ["eq", "ne", "lt", "le", "gt", "ge"]
        for _ in range(300):
            lo_a, hi_a = sorted((rng.randrange(64), rng.randrange(64)))
            lo_b, hi_b = sorted((rng.randrange(64), rng.randrange(64)))
            a = range_from_bounds(lo_a, hi_a)
            b = range_from_bounds(lo_b, hi_b)
            op = rng.choice(ops)
            ca, cb = rng.randint(lo_a, hi_a), rng.randint(lo_b, hi_b)
            taken = {
                "eq": ca == cb, "ne": ca != cb, "lt": ca < cb,
                "le": ca <= cb, "gt": ca > cb, "ge": ca >= cb,
            }[op]
            refined = refine_cmp(op, a, b, taken=taken)
            # The branch actually taken by (ca, cb) can never be
            # refined away, and must still contain both values.
            assert refined is not None, (op, ca, cb)
            na, nb = refined
            assert na.umin <= ca <= na.umax
            assert nb.umin <= cb <= nb.umax
