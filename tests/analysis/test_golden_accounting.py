"""Golden accounting for the skip-list case study (Fig. 3a/3b).

The skip list is the heaviest user of the memory wrapper, so its exact
cycle totals and per-category split pin the wrapper's charging path
end to end: both the cost-charged table preload and the measured
replay.  Any change to a charged cost or category fails here.
"""

import pickle

import pytest

from repro.analysis.experiments import (
    MASK64,
    _measure,
    fig3a_skiplist_lookup,
    fig3b_skiplist_update_delete,
)
from repro.ebpf.cost_model import Category, Cycles, ExecMode
from repro.ebpf.runtime import BpfRuntime
from repro.net.flowgen import FlowGenerator
from repro.nfs.kv_skiplist import OP_LOOKUP, OP_UPDATE_DELETE, SkipListKV

LOAD = 1024
N_PACKETS = 200

#: (experiment, op mix, seed) -> mode -> expected accounting.
#: ``preload`` and ``measured`` are (total, {category name: cycles}).
GOLDEN = {
    ("fig3a", OP_LOOKUP, 3): {
        ExecMode.KERNEL: {
            "cpp": 3585.625,
            "preload": (3340648, {"NONCONTIG": 3340648}),
            "measured": (717125, {"FRAMEWORK": 18600, "NONCONTIG": 689525,
                                  "PARSE": 9000}),
        },
        ExecMode.ENETSTL: {
            "cpp": 3892.6,
            "preload": (3704237, {"NONCONTIG": 3704237}),
            "measured": (778520, {"FRAMEWORK": 19000, "NONCONTIG": 750520,
                                  "PARSE": 9000}),
        },
    },
    ("fig3b", OP_UPDATE_DELETE, 4): {
        ExecMode.KERNEL: {
            "cpp": 3056.465,
            "preload": (2828127, {"NONCONTIG": 2828127}),
            "measured": (611293, {"FRAMEWORK": 18600, "NONCONTIG": 583693,
                                  "PARSE": 9000}),
        },
        ExecMode.ENETSTL: {
            "cpp": 3351.065,
            "preload": (3155926, {"NONCONTIG": 3155926}),
            "measured": (670213, {"FRAMEWORK": 19000, "NONCONTIG": 642213,
                                  "PARSE": 9000}),
        },
    },
}

SWEEPS = {"fig3a": fig3a_skiplist_lookup, "fig3b": fig3b_skiplist_update_delete}


def _named(by_category):
    return {cat.name: cyc for cat, cyc in by_category.items()}


@pytest.mark.parametrize("key", list(GOLDEN), ids=lambda k: k[0])
class TestSkipListGolden:
    def test_sweep_cycles_per_packet(self, key):
        name = key[0]
        sweep = SWEEPS[name](loads=(LOAD,), n_packets=N_PACKETS)
        got = {p.mode: p.cycles_per_packet for p in sweep.points}
        assert got == {mode: g["cpp"] for mode, g in GOLDEN[key].items()}

    def test_preload_and_replay_breakdown(self, key):
        _, op_mix, seed = key
        fg = FlowGenerator(n_flows=LOAD, seed=seed)
        keys = [f.key_int & MASK64 for f in fg.flows]
        trace = fg.trace(N_PACKETS)
        for mode, golden in GOLDEN[key].items():
            rt = BpfRuntime(mode=mode, seed=seed)
            nf = SkipListKV(rt, op_mix=op_mix)
            nf.preload(keys)
            preload = (rt.cycles.total, _named(rt.cycles.breakdown()))
            assert preload == golden["preload"], mode
            rt.cycles.reset()
            result = _measure(nf, trace)
            measured = (result.total_cycles, _named(result.by_category))
            assert measured == golden["measured"], mode


class TestCategory:
    def test_pickle_round_trip_is_the_singleton(self):
        for cat in Category:
            assert pickle.loads(pickle.dumps(cat)) is cat

    def test_unpickled_members_key_dicts(self):
        counter = Cycles()
        for i, cat in enumerate(Category):
            counter.charge(i + 1, cat)
        restored = pickle.loads(pickle.dumps(counter.breakdown()))
        for i, cat in enumerate(Category):
            assert restored[cat] == i + 1
        restored_counter = pickle.loads(pickle.dumps(counter))
        restored_counter.charge(5, Category.NONCONTIG)
        assert restored_counter.breakdown()[Category.NONCONTIG] == (
            counter.breakdown()[Category.NONCONTIG] + 5
        )

    def test_negative_charge_raises(self):
        with pytest.raises(ValueError, match="negative"):
            Cycles().charge(-1, Category.OTHER)
        rt = BpfRuntime(mode=ExecMode.ENETSTL)
        with pytest.raises(ValueError, match="negative"):
            rt.charge(-1)
        assert rt.cycles.total == 0

    def test_runtime_charge_defaults_to_other(self):
        rt = BpfRuntime()
        rt.charge(3)
        assert rt.cycles.breakdown() == {Category.OTHER: 3}

    def test_unpickled_runtime_charges_its_own_counter(self):
        rt = BpfRuntime(mode=ExecMode.KERNEL)
        rt.charge(4, Category.NONCONTIG)
        clone = pickle.loads(pickle.dumps(rt))
        clone.charge(6, Category.NONCONTIG)
        assert clone.cycles.breakdown() == {Category.NONCONTIG: 10}
        assert rt.cycles.total == 4
