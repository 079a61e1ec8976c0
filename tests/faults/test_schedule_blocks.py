"""Block-drawn fault schedules against the per-event reference.

:class:`FaultInjector` walks each kind's schedule in blocks hashed by
the lane kernel, and :meth:`FaultInjector.screen` decides a whole batch
at once.  Both must give exactly what one ``_chance`` draw per event
gives, in any interleaving of the four entry points, and so must the
lane kernel that draws each block.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algorithms.hashing import LANES, fast_hash32_below
from repro.ebpf.maps import MapFullError
from repro.faults import (
    HELPER,
    MAP_FULL,
    MAP_NOMEM,
    PACKET_KINDS,
    RATE_KINDS,
    FaultInjector,
    FaultPlan,
    _KIND_SALT,
    _MAX_BLOCK,
    _chance,
    _core_seed,
)


class _Reference:
    """The injector as one ``_chance`` draw per event."""

    def __init__(self, plan: FaultPlan, core: int) -> None:
        self.seed = _core_seed(plan.seed, core)
        self.rates = plan.rates()
        self.index = {kind: 0 for kind in RATE_KINDS}
        self.injected: Counter = Counter()

    def _fires(self, kind):
        idx = self.index[kind]
        self.index[kind] = idx + 1
        rate = self.rates[kind]
        return rate > 0.0 and _chance(self.seed, _KIND_SALT[kind], idx) < rate

    def packet_fault(self):
        hit = None
        for kind in PACKET_KINDS:
            if self._fires(kind) and hit is None:
                hit = kind
        if hit is not None:
            self.injected[hit] += 1
        return hit

    def helper_fault(self):
        if self._fires(HELPER):
            self.injected[HELPER] += 1
            return True
        return False

    def map_update_fault(self):
        full = self._fires(MAP_FULL)
        nomem = self._fires(MAP_NOMEM)
        kind = MAP_FULL if full else MAP_NOMEM if nomem else None
        if kind is not None:
            self.injected[kind] += 1
        return kind

    def screen(self, n):
        hits = []
        for offset in range(n):
            fault = self.packet_fault()
            failed = self.helper_fault()
            if fault is not None or failed:
                hits.append((offset, fault, failed))
        return hits


def _map_kind(exc):
    if exc is None:
        return None
    return MAP_FULL if isinstance(exc, MapFullError) else MAP_NOMEM


rates = st.one_of(
    st.sampled_from([0.0, 0.001, 0.05, 0.3, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)
plans = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=1 << 40),
    drop_rate=rates,
    corrupt_rate=rates,
    truncate_rate=rates,
    dup_rate=rates,
    helper_rate=rates,
    map_full_rate=rates,
    map_nomem_rate=rates,
)
#: Batch sizes around the first block boundaries and past the cap.
screen_sizes = st.one_of(
    st.sampled_from([0, 1, 63, 64, 65, 191, 192, 193, _MAX_BLOCK + 1]),
    st.integers(min_value=0, max_value=3 * _MAX_BLOCK),
)
ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["packet", "helper", "map"]), st.just(0)),
        st.tuples(st.just("screen"), screen_sizes),
    ),
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(plan=plans, core=st.integers(min_value=0, max_value=5), ops=ops)
def test_injector_matches_per_event_reference(plan, core, ops):
    injector = FaultInjector(plan, core=core)
    reference = _Reference(plan, core)
    for op, n in ops:
        if op == "packet":
            assert injector.packet_fault() == reference.packet_fault()
        elif op == "helper":
            assert injector.helper_fault() == reference.helper_fault()
        elif op == "map":
            got = _map_kind(injector.map_update_fault())
            assert got == reference.map_update_fault()
        else:
            assert injector.screen(n) == reference.screen(n)
    assert list(injector.injected.items()) == list(reference.injected.items())
    assert injector.describe()["events_seen"] == reference.index


def test_screen_of_a_dense_plan_reports_every_offset():
    injector = FaultPlan(drop_rate=1.0, helper_rate=1.0).injector()
    assert injector.screen(3) == [(i, "pkt_drop", True) for i in range(3)]
    assert injector.injected == {"pkt_drop": 3, HELPER: 3}


def test_screen_rejects_negative_sizes():
    injector = FaultPlan.uniform(0.1).injector()
    with pytest.raises(ValueError):
        injector.screen(-1)
    assert injector.screen(0) == []
    assert injector.describe()["events_seen"] == dict.fromkeys(RATE_KINDS, 0)


@settings(max_examples=60, deadline=None)
@given(
    plan=plans,
    kind=st.sampled_from(RATE_KINDS),
    n_events=st.integers(min_value=-2, max_value=2 * _MAX_BLOCK + 3),
    core=st.integers(min_value=0, max_value=5),
)
def test_schedule_equals_its_definition(plan, kind, n_events, core):
    rate = plan.rates()[kind]
    seed = _core_seed(plan.seed, core)
    expected = [
        i for i in range(n_events)
        if rate > 0.0 and _chance(seed, _KIND_SALT[kind], i) < rate
    ]
    assert plan.schedule(kind, n_events, core=core) == expected


@pytest.mark.parametrize("nudge, fires", [(0.0, False), (0.5, True)])
def test_threshold_is_exact_at_a_hash_boundary(nudge, fires):
    """A rate exactly at, or half a step above, an event's draw."""
    h = int(_chance(0, _KIND_SALT[HELPER], 5) * 4294967296.0)
    plan = FaultPlan(helper_rate=(h + nudge) / 4294967296.0)
    assert (5 in plan.schedule(HELPER, 6)) is fires
    injector = plan.injector()
    assert [injector.helper_fault() for _ in range(6)][5] is fires


# -- the lane kernel behind every schedule block -------------------------------

#: Thresholds at both ends of the compare and one step inside them.
THRESHOLDS = (0, 1, (1 << 32) - 1, 1 << 32)


@pytest.mark.parametrize("c", range(LANES))
def test_lane_kernel_matches_chance_per_event(c):
    """Every value of the salt's block bits ``(salt >> 7) & 63``, with
    block counts 1..16 and starts on both sides of ``i << 7`` passing
    64 bits."""
    salt = (c << 7) | (0x2F if c % 2 else 0x51) | (0xB7E15 << 13)
    seed = 0x5EED + c
    n_blocks = c % 16 + 1
    start = LANES * (7 * c) if c % 2 else (1 << 57) + LANES * (c + 1)
    if c % 4 == 3:
        start = (1 << 63) - LANES * c
    end = start + n_blocks * LANES
    draws = [_chance(seed, salt, i) for i in range(start, end)]
    mid = int(draws[0] * 4294967296.0) + 1   # fires the first index
    for threshold in THRESHOLDS + (mid,):
        expected = [
            i for i, draw in zip(range(start, end), draws)
            if draw < threshold / 4294967296.0
        ]
        assert fast_hash32_below(start, end, salt, seed, threshold) == expected
    assert fast_hash32_below(start, end, salt, seed, 0) == []
    assert fast_hash32_below(start, end, salt, seed, 1 << 32) == list(
        range(start, end)
    )


def test_lane_kernel_rejects_unaligned_blocks_and_bad_thresholds():
    assert fast_hash32_below(LANES, LANES, 5, 1, 1 << 31) == []
    for start, end in ((1, LANES), (0, LANES + 1)):
        with pytest.raises(ValueError):
            fast_hash32_below(start, end, 5, 1, 1 << 31)
    for threshold in (-1, (1 << 32) + 1):
        with pytest.raises(ValueError):
            fast_hash32_below(0, LANES, 5, 1, threshold)


sparse_plans = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=1 << 40),
    drop_rate=st.sampled_from([0.0, 0.002, 0.01]),
    corrupt_rate=st.sampled_from([0.0, 0.002]),
    truncate_rate=st.sampled_from([0.0, 0.002]),
    dup_rate=st.sampled_from([0.0, 0.01]),
    helper_rate=st.sampled_from([0.0, 0.002, 0.01]),
)


def _screen_against_rounds(plan, core, sizes):
    """Screen ``sizes`` against the reference; returns how many calls
    found nothing due inside their batch (the early return)."""
    injector = FaultInjector(plan, core=core)
    reference = _Reference(plan, core)
    screened = [injector._schedules[k] for k in PACKET_KINDS + (HELPER,)]
    early = 0
    for n in sizes:
        early += all(s.due >= s.index + n for s in screened)
        assert injector.screen(n) == reference.screen(n)
        assert injector.injected == reference.injected
        assert injector.describe()["events_seen"] == reference.index
    return early


@settings(max_examples=40, deadline=None)
@given(
    plan=sparse_plans,
    core=st.integers(min_value=0, max_value=3),
    sizes=st.lists(st.integers(min_value=0, max_value=8), max_size=120),
)
def test_screen_early_return_books_what_the_rounds_book(plan, core, sizes):
    """Small batches under sparse plans mostly take the early return;
    it must book the same ledger and event indexes as ``n`` rounds of
    ``packet_fault``/``helper_fault``."""
    _screen_against_rounds(plan, core, sizes)


def test_screen_takes_the_early_return_on_small_batches():
    sizes = [4] * 500
    early = _screen_against_rounds(FaultPlan.uniform(0.01, seed=3), 1, sizes)
    assert 300 < early < len(sizes)
