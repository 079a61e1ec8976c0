"""Tests for packets, flow generation, and stats helpers."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.net.flowgen import (
    FlowGenerator,
    make_flows,
    rate_to_inter_arrival_ns,
)
from repro.net.packet import (
    MIN_FRAME_BYTES,
    PROTO_TCP,
    PROTO_UDP,
    Packet,
    XdpAction,
)
from repro.net.stats import geo_mean, mean, percentile, relative_error, stdev


class TestPacket:
    def test_five_tuple(self):
        p = Packet(1, 2, 3, 4, 5)
        assert p.five_tuple == (1, 2, 3, 4, 5)

    def test_key_int_packs_uniquely(self):
        a = Packet(1, 2, 3, 4, 5)
        b = Packet(2, 1, 3, 4, 5)
        c = Packet(1, 2, 4, 3, 5)
        assert len({a.key_int, b.key_int, c.key_int}) == 3

    @given(
        st.integers(0, 0xFFFFFFFF),
        st.integers(0, 0xFFFFFFFF),
        st.integers(0, 0xFFFF),
        st.integers(0, 0xFFFF),
        st.integers(0, 0xFF),
    )
    def test_key_int_roundtrips(self, src, dst, sp, dp, proto):
        p = Packet(src, dst, sp, dp, proto)
        k = p.key_int
        assert k & 0xFFFFFFFF == src
        assert k >> 32 & 0xFFFFFFFF == dst
        assert k >> 64 & 0xFFFF == sp
        assert k >> 80 & 0xFFFF == dp
        assert k >> 96 & 0xFF == proto

    def test_validation(self):
        with pytest.raises(ValueError):
            Packet(-1, 0, 0, 0)
        with pytest.raises(ValueError):
            Packet(0, 0, 70000, 0)
        with pytest.raises(ValueError):
            Packet(0, 0, 0, 0, proto=300)
        with pytest.raises(ValueError):
            Packet(0, 0, 0, 0, size=10)

    def test_with_timestamp(self):
        p = Packet(1, 2, 3, 4).with_timestamp(999)
        assert p.timestamp_ns == 999
        assert p.five_tuple == (1, 2, 3, 4, PROTO_UDP)

    def test_xdp_actions(self):
        assert XdpAction.DROP in XdpAction.ALL
        assert len(XdpAction.ALL) == 5


def _stdlib_make_flows(n_flows, seed):
    """Reference population: the stdlib draw ``make_flows`` must equal."""
    rng = random.Random(seed)
    flows = []
    seen = set()
    while len(flows) < n_flows:
        pkt = Packet(
            src_ip=rng.getrandbits(32),
            dst_ip=rng.getrandbits(32),
            src_port=rng.randrange(1024, 65536),
            dst_port=rng.choice((53, 80, 443, 8080, 4789)),
            proto=rng.choice((PROTO_TCP, PROTO_UDP)),
            size=MIN_FRAME_BYTES,
        )
        if pkt.five_tuple in seen:
            continue
        seen.add(pkt.five_tuple)
        flows.append(pkt)
    return flows


class TestFlowGenerator:
    def test_make_flows_distinct(self):
        flows = make_flows(500, seed=2)
        assert len({f.five_tuple for f in flows}) == 500

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 300),
        extra=st.integers(0, 300),
        seed=st.integers(0, 2**64),
    )
    @example(n=3276, extra=16384 - 3276, seed=5)   # fig3c's alpha = 0.2
    def test_make_flows_is_a_prefix_of_larger_populations(self, n, extra, seed):
        # One RNG stream plus a deterministic dedup: the Fig. 3(c)/(g)
        # sweeps draw their largest population once and rely on each
        # load factor's make_flows(n_keys, seed) being its head.
        assert make_flows(n, seed) == make_flows(n + extra, seed)[:n]

    @pytest.mark.parametrize("seed", [1, 3, 4, 5, 9, 11, 12, 2**64 + 7])
    @pytest.mark.parametrize("n", [1, 5, 1024, 4096, 16384])
    def test_make_flows_matches_the_stdlib_draw(self, n, seed):
        # make_flows spells randrange/choice out as getrandbits rejection
        # loops; this pins it to how Random._randbelow consumes bits on
        # the running interpreter.
        assert make_flows(n, seed) == _stdlib_make_flows(n, seed)

    def test_deterministic_per_seed(self):
        a = FlowGenerator(64, seed=5).trace(100)
        b = FlowGenerator(64, seed=5).trace(100)
        assert [p.five_tuple for p in a] == [p.five_tuple for p in b]

    def test_trace_draws_from_flow_population(self):
        fg = FlowGenerator(16, seed=1)
        population = {f.five_tuple for f in fg.flows}
        assert all(p.five_tuple in population for p in fg.trace(200))

    def test_zipf_skews_toward_head(self):
        fg = FlowGenerator(256, distribution="zipf", zipf_s=1.2, seed=1)
        counts = {}
        for p in fg.trace(5000):
            counts[p.five_tuple] = counts.get(p.five_tuple, 0) + 1
        top = max(counts.values())
        assert top > 5000 / 256 * 10   # heavily skewed

    def test_uniform_is_roughly_even(self):
        fg = FlowGenerator(16, distribution="uniform", seed=1)
        counts = {}
        for p in fg.trace(8000):
            counts[p.five_tuple] = counts.get(p.five_tuple, 0) + 1
        assert max(counts.values()) < 3 * min(counts.values())

    def test_round_robin_cycles(self):
        fg = FlowGenerator(4, distribution="round_robin", seed=1)
        trace = fg.trace(8)
        assert [p.five_tuple for p in trace[:4]] == [
            p.five_tuple for p in trace[4:]
        ]

    def test_timestamps_spaced(self):
        fg = FlowGenerator(4, seed=1)
        trace = fg.trace(5, inter_arrival_ns=100)
        assert [p.timestamp_ns for p in trace] == [0, 100, 200, 300, 400]

    def test_invalid_distribution(self):
        with pytest.raises(ValueError):
            FlowGenerator(4, distribution="pareto")

    def test_rate_conversion(self):
        assert rate_to_inter_arrival_ns(1e6) == 1000
        with pytest.raises(ValueError):
            rate_to_inter_arrival_ns(0)

    @pytest.mark.parametrize("distribution", ["uniform", "zipf", "round_robin"])
    def test_given_flows_trace_like_overwritten_population(self, distribution):
        # The trace RNG is seeded from ``seed`` alone, so a generator
        # built over given flows replays exactly what one that
        # synthesized its own population and then had it overwritten
        # does (how the Fig. 3c/3g sweeps restricted traffic to the
        # resident keys).
        resident = make_flows(300, seed=5)[:123]
        old = FlowGenerator(len(resident), distribution=distribution, seed=6)
        old.flows = resident
        new = FlowGenerator(distribution=distribution, seed=6, flows=resident)
        assert new.flows == resident and new.flows is not resident
        assert new.trace(500) == old.trace(500)

    def test_given_flows_must_be_non_empty(self):
        with pytest.raises(ValueError):
            FlowGenerator(flows=[])


class TestStats:
    def test_mean_stdev(self):
        assert mean([1, 2, 3]) == 2
        assert stdev([2, 2, 2]) == 0
        assert stdev([1]) == 0

    def test_percentile(self):
        data = list(range(1, 101))
        assert percentile(data, 50) == pytest.approx(50.5)
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 100

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_geo_mean(self):
        assert geo_mean([1, 100]) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            geo_mean([0, 1])

    def test_relative_error(self):
        assert relative_error(110, 100) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            relative_error(1, 0)
