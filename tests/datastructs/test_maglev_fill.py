"""``maglev_fill``: the one Maglev permutation fill.

``MaglevTable``, the bundled ``enetstl_maglev_pick`` table and the IR
Katran ring all fill through it.  The oracle below is the textbook
loop (slot ``(offset + j * skip) % size`` for the ``j``-th probe, each
backend in turn claiming its next free slot); the fill must match it
slot for slot.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.ir import CH_RING_SIZE, KatranState
from repro.datastructs.maglev import MaglevTable, maglev_fill
from repro.ebpf.progs import MAGLEV_TABLE_SIZE, _maglev_table

PRIMES = (2, 3, 5, 7, 11, 13, 31, 251, 509)


def reference_fill(perms, size):
    next_idx = [0] * len(perms)
    table = [-1] * size
    filled = 0
    while filled < size:
        for b, (offset, skip) in enumerate(perms):
            while True:
                c = (offset + next_idx[b] * skip) % size
                next_idx[b] += 1
                if table[c] == -1:
                    table[c] = b
                    filled += 1
                    break
            if filled == size:
                break
    return table


@st.composite
def fills(draw):
    size = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, min(size, 12)))
    perm = st.tuples(st.integers(0, size - 1), st.integers(1, max(1, size - 1)))
    return draw(st.lists(perm, min_size=n, max_size=n)), size


@settings(max_examples=300, deadline=None)
@given(fills())
def test_matches_the_reference_fill(case):
    perms, size = case
    assert maglev_fill(perms, size) == reference_fill(perms, size)


def test_rejects_no_backends():
    with pytest.raises(ValueError):
        maglev_fill([], 5)


def test_every_user_fills_like_the_reference():
    table = MaglevTable([f"be{i}" for i in range(7)], 1009)
    perms = [table._permutation_params(b) for b in table.backends]
    assert table.table == reference_fill(perms, 1009)

    rng = random.Random("maglev-5")
    perms = [
        (rng.randrange(MAGLEV_TABLE_SIZE), rng.randrange(1, MAGLEV_TABLE_SIZE))
        for _ in range(8)
    ]
    assert _maglev_table(5) == reference_fill(perms, MAGLEV_TABLE_SIZE)

    kat = KatranState(n_reals=5, seed=3)
    for failed in (None, 2, 0):
        if failed is not None:
            kat.fail_real(failed)
        perms = [kat._perm(real) for real in kat.alive]
        owners = reference_fill(perms, CH_RING_SIZE)
        assert kat.ring == [kat.alive[i] for i in owners]
