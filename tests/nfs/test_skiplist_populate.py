"""``SkipListKV.populate`` against the charged ``preload`` it replaces.

``populate`` builds the list without charging; ``preload`` inserts key
by key through the kfuncs and stays as the reference.  After the build
the two lists must be indistinguishable to anything but the cycle
counter: the node graph (keys, payloads, per-level links, in-edges,
refcounts, owners, liveness), node ids relative to the head, ``height``,
length and the runtime PRNG state.  A replay on top of either build must
then charge the same cycles in the same categories, return the same
verdicts and move the wrapper's counters by the same amounts.
"""

import pytest

from repro.core.memwrap import EAGER, LAZY
from repro.ebpf.cost_model import ExecMode
from repro.ebpf.runtime import BpfRuntime
from repro.net.flowgen import FlowGenerator
from repro.net.xdp import XdpPipeline
from repro.nfs.kv_skiplist import OP_LOOKUP, OP_UPDATE_DELETE, SkipListKV

MODES = (ExecMode.KERNEL, ExecMode.ENETSTL)
CHECKINGS = (LAZY, EAGER)
OP_MIXES = (OP_LOOKUP, OP_UPDATE_DELETE)
CONFIGS = [(m, c, o) for m in MODES for c in CHECKINGS for o in OP_MIXES]

SEED = 21
FLOWS = FlowGenerator(n_flows=200, seed=SEED)
TRACE = FLOWS.trace(400)


def _keys():
    """Flow keys (wider than 64 bits), with repeats and with keys that
    differ only above bit 63, so they collide after the mask."""
    keys = [f.key_int for f in FLOWS.flows[:150]]
    keys += keys[10:30]                                   # exact repeats
    keys += [k ^ (1 << 64) for k in keys[40:60]]           # collide masked
    keys += [k + (7 << 80) for k in keys[100:110]]
    keys += [3, 1, 2, 3]                                   # small, repeated
    return keys


def _graph(kv):
    """The proxy's nodes (the head first) with ids relative to the head."""
    base = kv.head.node_id
    rel = lambda n: None if n is None else n.node_id - base
    return [
        (
            rel(n),
            bytes(n.data),
            [rel(o) for o in n.outs],
            sorted((rel(src), level) for src, level in n.in_edges()),
            n.refcount,
            n.owner is kv.proxy,
            n.alive,
        )
        for n in sorted(kv.proxy, key=lambda n: n.node_id)
    ]


def _state(kv):
    return {
        "graph": _graph(kv),
        "height": kv.height,
        "len": len(kv),
        "proxy": len(kv.proxy),
        "rng": kv.rt._prng.getstate(),
    }


def _stats(kv):
    s = kv.wrapper.stats
    return (s.allocs, s.frees, s.connects, s.traversals)


def _build(how, mode, checking, op_mix, keys, fail_first=False):
    kv = SkipListKV(BpfRuntime(mode=mode, seed=SEED), op_mix=op_mix,
                    checking=checking)
    if fail_first:
        kv.wrapper.fail_next_alloc()
    getattr(kv, how)(keys)
    return kv


def _replay(kv):
    kv.rt.cycles.reset()
    before = _stats(kv)
    result = XdpPipeline(kv).run(TRACE)
    after = _stats(kv)
    return {
        "total": result.total_cycles,
        "by_category": result.by_category,
        "actions": result.actions,
        "errors": result.errors,
        "stats": tuple(a - b for a, b in zip(after, before)),
        "state": _state(kv),
    }


def _check(mode, checking, op_mix, keys, fail_first=False):
    # Each list is built and replayed before the next is created, so
    # node ids relative to the head line up.
    results = []
    for how in ("preload", "populate"):
        kv = _build(how, mode, checking, op_mix, keys, fail_first)
        built = _state(kv)
        results.append((built, _replay(kv)))
    (ref_built, ref_run), (built, run) = results
    assert built == ref_built
    assert run == ref_run
    return built


@pytest.mark.parametrize("mode, checking, op_mix", CONFIGS)
def test_populate_matches_preload(mode, checking, op_mix):
    built = _check(mode, checking, op_mix, _keys())
    assert built["len"] > 100 and built["height"] > 1


@pytest.mark.parametrize(
    "mode, checking", [(m, c) for m in MODES for c in CHECKINGS]
)
def test_populate_honours_fail_next_alloc(mode, checking):
    """The failed allocation still draws a height; its key is skipped
    and inserted afresh when it occurs again."""
    keys = [9, 5, 9, 7, 5] + _keys()
    built = _check(mode, checking, OP_UPDATE_DELETE, keys, fail_first=True)
    first = [node[1][:8] for node in built["graph"][1:3]]
    assert first == [(5).to_bytes(8, "little"), (9).to_bytes(8, "little")]
    kv = _build("populate", mode, checking, OP_LOOKUP, [4], fail_first=True)
    assert len(kv) == 0 and list(kv.proxy) == [kv.head]
    assert kv.lookup(4) is None


def test_populate_charges_nothing():
    kv = _build("populate", ExecMode.ENETSTL, LAZY, OP_LOOKUP, _keys())
    assert kv.rt.cycles.total == 0
    assert kv.rt.cycles.breakdown() == {}


def test_populate_needs_an_empty_list():
    kv = SkipListKV(BpfRuntime(mode=ExecMode.ENETSTL, seed=SEED))
    kv.insert(1, b"x")
    with pytest.raises(ValueError):
        kv.populate([2, 3])
    kv.delete(1)
    kv.populate([2, 3])
    assert len(kv) == 2 and kv.lookup(3) is not None
