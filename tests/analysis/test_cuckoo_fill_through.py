"""The Fig. 3(c)/(g) sweeps fill one table through their load factors.

Each sweep draws its largest population once and tops one table up
from one load factor to the next, copying it per mode.  That must give
every point exactly what a fresh fill at that load factor alone gives,
in any order of load factors, and the parallel runner (one subtask per
sweep) must return the serial sweeps.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.experiments import fig3c_cuckoo_switch, fig3g_cuckoo_filter
from repro.analysis.parallel import EXPERIMENTS, run_experiments
from repro.datastructs.cuckoo import BlockedCuckooTable
from repro.datastructs.cuckoo_filter import CuckooFilter

N_PACKETS = 40

ORDERS = {
    "ascending": (0.2, 0.6, 0.95),
    "descending": (0.95, 0.4, 0.2),
    "repeat": (0.4, 0.4, 0.8, 0.6, 0.8),
}


def _points(sweep):
    return [(p.x, p.mode, p.cycles_per_packet, p.pps, p.extra) for p in sweep.points]


@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize(
    "fn, geometry",
    [
        (fig3c_cuckoo_switch, {}),
        (fig3g_cuckoo_filter, {}),
        # Small tables: the high load factors take the kick paths often.
        (fig3c_cuckoo_switch, {"n_buckets": 64, "slots": 4}),
        (fig3g_cuckoo_filter, {"n_buckets": 64, "slots": 2}),
    ],
    ids=["fig3c", "fig3g", "fig3c-small", "fig3g-small"],
)
def test_sweep_equals_single_load_factor_runs(fn, geometry, order):
    load_factors = ORDERS[order]
    swept = fn(load_factors=load_factors, n_packets=N_PACKETS, **geometry)
    alone = []
    for alpha in load_factors:
        alone += _points(fn(load_factors=(alpha,), n_packets=N_PACKETS, **geometry))
    assert _points(swept) == alone
    assert len(swept.points) == 3 * len(load_factors)


@pytest.mark.parametrize("fn", [fig3c_cuckoo_switch, fig3g_cuckoo_filter])
def test_empty_and_degenerate_load_factors(fn):
    assert fn(load_factors=(), n_packets=N_PACKETS).points == []
    with pytest.raises(ValueError):
        fn(load_factors=(0.2, 0.0), n_packets=N_PACKETS)


def test_parallel_runner_equals_serial_sweeps():
    for name in ("fig3c", "fig3g"):
        assert len(EXPERIMENTS[name].split(N_PACKETS)) == 1
    fanned = run_experiments(["fig3c", "fig3g"], n_packets=N_PACKETS, jobs=2)
    assert fanned["fig3c"] == fig3c_cuckoo_switch(n_packets=N_PACKETS)
    assert fanned["fig3g"] == fig3g_cuckoo_filter(n_packets=N_PACKETS)


# -- two-slice fills ---------------------------------------------------------


def _table_state(t):
    layout = [
        [None if e is None else (e.sig, e.key, e.value, e.i1, e.i2) for e in b]
        for b in t._buckets
    ]
    return layout, len(t)


def _filter_state(f):
    return [list(b) for b in f._buckets], len(f), f._rng.getstate()


#: Few buckets, so a few dozen keys overflow them into the kick paths.
geometry = st.tuples(st.sampled_from([1, 2, 4, 8]), st.integers(1, 4))
key_lists = st.lists(st.integers(0, 2**64 - 1), max_size=60)

#: Keys that fill a 4 x 2 table through its kick paths (pinned below).
KICK_KEYS = [k * 2654435761 + 17 for k in range(40)]


@settings(max_examples=120, deadline=None)
@given(geometry=geometry, keys=key_lists, cut=st.integers(0, 60))
@example(geometry=(4, 2), keys=KICK_KEYS, cut=5)
def test_cuckoo_table_two_slice_fill_equals_one_fill(geometry, keys, cut):
    n_buckets, slots = geometry
    one = BlockedCuckooTable(n_buckets, slots)
    for k in keys:
        one.insert(k, k & 0xFFFF)
    two = BlockedCuckooTable(n_buckets, slots)
    for k in keys[:cut]:
        two.insert(k, k & 0xFFFF)
    # A mode probes its own copy between the slices.
    probed = two.copy()
    for k in keys:
        probed.lookup(k)
    for k in keys[cut:]:
        two.insert(k, k & 0xFFFF)
    assert _table_state(two) == _table_state(one)
    assert len(two) == len(two.items())
    for index, bucket in enumerate(two._buckets):
        for e in filter(None, bucket):
            assert (e.i1, e.i2) == (two.index1(e.key), two.index2(e.key))
            assert index in (e.i1, e.i2)
            assert e.sig == two.signature(e.key)


@settings(max_examples=120, deadline=None)
@given(geometry=geometry, keys=key_lists, cut=st.integers(0, 60))
@example(geometry=(4, 2), keys=KICK_KEYS, cut=5)
def test_cuckoo_filter_two_slice_fill_equals_one_fill(geometry, keys, cut):
    n_buckets, slots = geometry
    one = CuckooFilter(n_buckets, slots)
    placed = [one.insert(k) for k in keys]
    two = CuckooFilter(n_buckets, slots)
    for k in keys[:cut]:
        two.insert(k)
    probed = two.copy()
    for k in keys:
        probed.contains(k)
    for k in keys[cut:]:
        two.insert(k)
    assert _filter_state(two) == _filter_state(one)
    assert len(two) == sum(placed)


def test_kick_keys_take_the_kick_paths():
    table = BlockedCuckooTable(4, 2)
    moved = 0
    for k in KICK_KEYS:
        both_full = all(
            table._free_slot(i) is None for i in (table.index1(k), table.index2(k))
        )
        moved += table.insert(k, 0) and both_full
    assert moved > 0
    filt = CuckooFilter(4, 2)
    drawn = filt._rng.getstate()
    for k in KICK_KEYS:
        filt.insert(k)
    assert filt._rng.getstate() != drawn
