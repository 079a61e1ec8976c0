"""Tests for the timing wheel and the cFFS priority queue."""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.datastructs.cffs import CFFSQueue
from repro.datastructs.timewheel import PlainBuckets, TimingWheel


class TestTimingWheel:
    def make(self, tick=100, l1=16, l2=8):
        return TimingWheel(tick_ns=tick, l1_slots=l1, l2_slots=l2)

    def test_due_items_drain_in_slot_order(self):
        tw = self.make()
        tw.add("late", 900)
        tw.add("early", 200)
        assert tw.advance_to(1000) == ["early", "late"]

    def test_not_yet_due_stays_queued(self):
        tw = self.make()
        tw.add("x", 500)
        assert tw.advance_to(400) == []
        assert len(tw) == 1
        assert tw.advance_to(500) == ["x"]

    def test_level2_cascade(self):
        tw = self.make(tick=100, l1=16, l2=8)
        # Beyond level 1's horizon (16*100 = 1600ns).
        tw.add("far", 3000)
        assert tw.advance_to(2900) == []
        assert tw.advance_to(3100) == ["far"]

    def test_past_timestamps_fire_immediately(self):
        tw = self.make()
        tw.advance_to(1000)
        tw.add("overdue", 10)     # already in the past
        assert tw.advance_to(1100) == ["overdue"]

    def test_far_future_item_not_lost(self):
        tw = self.make(tick=100, l1=16, l2=8)   # horizon = 12800
        tw.add("beyond", 1_000_000)             # far past the horizon
        assert tw.advance_to(30_000) == []      # not early
        assert len(tw) == 1                     # still queued (re-cascaded)
        assert tw.advance_to(1_000_000) == ["beyond"]

    def test_len_tracks_population(self):
        tw = self.make()
        for i in range(10):
            tw.add(i, 100 * i + 50)
        assert len(tw) == 10
        tw.advance_to(500)
        assert len(tw) < 10

    def test_fifo_within_slot(self):
        tw = self.make()
        tw.add("a", 250)
        tw.add("b", 250)
        assert tw.advance_to(300) == ["a", "b"]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TimingWheel(tick_ns=0)
        with pytest.raises(ValueError):
            TimingWheel(l1_slots=0)

    @given(st.lists(st.integers(0, 20_000), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_everything_fires_by_deadline(self, expires):
        tw = TimingWheel(tick_ns=100, l1_slots=32, l2_slots=16)
        for i, e in enumerate(expires):
            tw.add(i, e)
        horizon = tw.horizon_ns
        fired = tw.advance_to(max(expires) + horizon + 200)
        assert sorted(fired) == list(range(len(expires)))
        assert len(tw) == 0

    @given(st.lists(st.integers(0, 1500), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_nothing_fires_early_within_level1(self, expires):
        tw = TimingWheel(tick_ns=100, l1_slots=32, l2_slots=16)
        for i, e in enumerate(expires):
            tw.add((i, e), e)
        now = 700
        for _, e in tw.advance_to(now):
            # A slot covers [tick*k, tick*k+99]; firing is at slot
            # granularity, never more than one tick early.
            assert e < now + tw.tick_ns


class TestPlainBuckets:
    def test_insert_drain(self):
        pb = PlainBuckets(4)
        pb.insert_tail(1, "a")
        pb.insert_tail(1, "b")
        assert pb.bucket_len(1) == 2
        assert pb.drain(1) == ["a", "b"]
        assert len(pb) == 0

    def test_pop_front(self):
        pb = PlainBuckets(2)
        assert pb.pop_front(0) is None
        pb.insert_tail(0, 1)
        assert pb.pop_front(0) == 1


class TestCFFS:
    def test_dequeues_in_priority_order(self):
        q = CFFSQueue(levels=2)
        for prio in (300, 5, 77, 4095):
            q.enqueue(prio, f"p{prio}")
        out = [q.dequeue_min()[0] for _ in range(4)]
        assert out == [5, 77, 300, 4095]

    def test_fifo_within_priority(self):
        q = CFFSQueue(levels=1)
        q.enqueue(7, "first")
        q.enqueue(7, "second")
        assert q.dequeue_min() == (7, "first")
        assert q.dequeue_min() == (7, "second")

    def test_empty_returns_none(self):
        q = CFFSQueue(levels=1)
        assert q.dequeue_min() is None
        assert q.peek_min_priority() is None

    def test_priority_range_by_levels(self):
        assert CFFSQueue(levels=1).n_priorities == 64
        assert CFFSQueue(levels=3).n_priorities == 64 ** 3

    def test_out_of_range_priority(self):
        q = CFFSQueue(levels=1)
        with pytest.raises(ValueError):
            q.enqueue(64, "x")
        with pytest.raises(ValueError):
            q.enqueue(-1, "x")

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            CFFSQueue(levels=0)
        with pytest.raises(ValueError):
            CFFSQueue(levels=5)

    def test_bitmap_clears_when_empty(self):
        q = CFFSQueue(levels=2)
        q.enqueue(100, "x")
        q.dequeue_min()
        assert q._bitmaps[0][0] == 0
        assert len(q) == 0 and not q

    def test_interleaved_enqueue_dequeue(self):
        q = CFFSQueue(levels=2)
        q.enqueue(50, "a")
        q.enqueue(10, "b")
        assert q.dequeue_min() == (10, "b")
        q.enqueue(5, "c")
        assert q.dequeue_min() == (5, "c")
        assert q.dequeue_min() == (50, "a")

    @given(st.lists(st.integers(0, 64 ** 2 - 1), min_size=1, max_size=150))
    @settings(max_examples=60, deadline=None)
    def test_matches_heapq_reference(self, priorities):
        q = CFFSQueue(levels=2)
        ref = []
        for i, prio in enumerate(priorities):
            q.enqueue(prio, i)
            heapq.heappush(ref, (prio, i))
        while ref:
            expect_prio, _ = ref[0]
            got_prio, _ = q.dequeue_min()
            assert got_prio == expect_prio
            heapq.heappop(ref)
        assert q.dequeue_min() is None
