"""The fused chain's per-batch hash prologue (repro.ebpf.fuse).

An inline kfunc spec may read ``fast_hash32(arg, seed)`` from a list
the fuser computes for the whole batch in lanes, but only when the
argument is *packet-pure* at the call: built from forwarded header
loads, immediates and mov/ALU on such values within the call's block.
Pinned here: which app hashes hoist, bit-for-bit parity with the
interpreter at every batch size around the lane kernel's crossover,
the cases that must not hoist, and the source of every chain with
nothing to hoist, which has no prologue.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.apps.ir import (
    IR_APP_NAMES,
    _prog,
    app_chain,
    app_nf,
    ir_registry,
)
from repro.ebpf.fuse import fuse_chain
from repro.ebpf.header import HEADER_BYTES, PKT_DST_IP, PKT_SRC_IP
from repro.ebpf.insn import (
    R0,
    R1,
    R2,
    R3,
    R4,
    R6,
    R7,
    R10,
    Alu,
    Call,
    Exit,
    Imm,
    JmpIf,
    Load,
    Mov,
    Store,
)
from repro.ebpf.progs import bundled_chains, get_case, runnable_registry
from repro.ebpf.runtime import BpfRuntime
from repro.ebpf.verifier import Verifier
from repro.ebpf.verify import _parity_trace, main as verify_main
from repro.net.flowgen import FlowGenerator
from repro.net.irnf import IrChainNf
from repro.net.packet import MIN_FRAME_BYTES

from tests.apps.test_ir_apps import _static_fdb

#: Batch sizes around the lane kernel's crossover (20 keys) and its
#: 64-lane block, plus a full dispatcher batch.
BATCH_SIZES = (1, 2, 19, 20, 63, 64, 65, 256)

EXPECTED_HOISTED = {"katran": 0, "rakelimit": 4, "polycube": 2, "sketches": 2}

#: sha256 of the fused source of every chain with nothing to hoist: such
#: a chain's code has no hash prologue and must not change while only
#: the prologue does.  Key: ``chain/elide_checks``.  Katran is fused
#: with its app kfunc specs replaced by fixed stand-ins
#: (:func:`_katran_standins`), so an edit to one of those specs does not
#: move its digests; a change to the code generator does, and then the
#: digests are re-recorded with it.
NO_HOIST_SOURCES = {
    "katran/True": "8758dff79a75e5ae9792242445662028f4222bbb3936b58e7d50d246dae8bf13",
    "nf_classifier/True": "06f09b42d338ff9f139530d1ce6393678fdf1d8a53b69ce2a33282919748a47a",
    "nf_cm_sketch/True": "3f4246d7216d6addd6440c857dea757ec8075e2feb9c3fb27d1fa623177dd5bf",
    "nf_maglev_pick/True": "997f7b17e8d0cfcb4fcf124bb0e80462f3df7a1b4025242535224620fa85d30b",
    "nf_classifier->nf_cm_sketch/True": "42cfa6e4ada130d58185c82458593b205d5a292a15c74749b1b49697c2ddf3e4",
    "nf_classifier->nf_maglev_pick/True": "2d358331fb8e4830c0a5d85ccb35493be48c9ac553baa7ed17fcb88fbe72ed24",
    "nf_cm_sketch->nf_maglev_pick/True": "2451e574079428ab5adc4d836d6d8ce1f5dec421cab926296985c2543e9a5eed",
    "nf_classifier->nf_cm_sketch->nf_maglev_pick/True": "c64b10f72280eff667c677d0d820f4584869ad03350d3d5c99af03050c8fca68",
    "katran/False": "7dee70bced8b4366c81cadfbc1b866a53725872f1fe4ae3d5d775026df9d124a",
    "nf_classifier/False": "82212b64e1af85da0f337001bce07501ea56e37397b399a812d91b847c41737f",
    "nf_cm_sketch/False": "5147c0239c90388787ad1b5a766bd28b88f1964bcfa04750ee1ec03d4f6642cd",
    "nf_maglev_pick/False": "7c767812721f1717d5f141c859a4cb4981776b739d6b354753f30a992e3844d9",
    "nf_classifier->nf_cm_sketch/False": "f70474ee956c23179f06c381c881b5bf941d21fad29776cd6c897b4ab02ae83c",
    "nf_classifier->nf_maglev_pick/False": "c1e32f35cd05a88c0f853ca5e10423598a8c7d8c93ccad6476f2f0a532911657",
    "nf_cm_sketch->nf_maglev_pick/False": "7e065e6cee21593ae39db61f9867d0eeecbeb6d638b5962bbba5f9d8084993e1",
    "nf_classifier->nf_cm_sketch->nf_maglev_pick/False": "6273d05aa0e813d0b613ee24ddd7d00d26e6e3efd4cbd5f829c21d478215ff24",
}


def _fuse(progs, registry, elide=True):
    verifier = Verifier(registry)
    return fuse_chain(
        registry, [verifier.verify(p) for p in progs], elide_checks=elide
    )


def _trace(n=sum(BATCH_SIZES), seed=4242):
    """Zipf flows at minimum frame size, every seventh frame proto 0
    (the parse stage drops it before any app hash is reached)."""
    pkts = FlowGenerator(
        n_flows=96, distribution="zipf", zipf_s=1.1, seed=seed
    ).trace(n)
    return [
        dataclasses.replace(
            p, proto=0 if i % 7 == 3 else p.proto, size=MIN_FRAME_BYTES
        )
        if i % 2 else p
        for i, p in enumerate(pkts)
    ]


def _batches(pkts):
    out, start = [], 0
    for size in BATCH_SIZES:
        out.append(pkts[start:start + size])
        start += size
    return out


def _app_state(registry):
    st = registry.app_state
    kat = st.katran
    return (
        st.rake_levels,
        sorted(st.fdb.items()),
        st.learn_filter,
        st.sketch.rows,
        st.univ_rows,
        sorted(st.heap),
        sorted(kat.conns.items()),
        kat.stats,
    )


def _observe(nf, registry):
    return (
        tuple(nf.returns),
        (
            nf.stats.steps,
            nf.stats.checks_performed,
            nf.stats.checks_elided,
            nf.stats.insn_cycles,
            nf.stats.check_cycles,
        ),
        nf.rt.cycles.total,
        sorted((c.name, v) for c, v in nf.rt.cycles.breakdown().items()),
        _app_state(registry),
    )


def _replay(app, backend, batches, elide=True):
    registry = ir_registry(7)
    if app == "polycube":
        _static_fdb(registry, [p for b in batches for p in b])
    nf = IrChainNf(
        BpfRuntime(),
        app_chain(app),
        registry=registry,
        elide_checks=elide,
        backend=backend,
    )
    verdicts = [sorted(nf.process_batch(b).items()) for b in batches]
    return verdicts, _observe(nf, registry)


# -- which hashes hoist ------------------------------------------------------


@pytest.mark.parametrize("app", IR_APP_NAMES)
def test_hoisted_calls_per_app(app):
    assert app_nf(app, backend="fused")._fused.hoisted_calls == (
        EXPECTED_HOISTED[app]
    )


def test_prologue_builds_each_key_list_once():
    # Polycube's learn filter hashes one MAC under two seeds: one key
    # list, two lane-hashed lists, and the loop indexes both.
    src = app_nf("polycube", backend="fused")._fused.source
    assert src.count("for _pp in batch]") == 1
    assert src.count("_fhl(_hk0, ") == 2
    assert "for _i, _pp in enumerate(batch):" in src


@pytest.mark.parametrize("elide", [True, False])
def test_only_forwarded_loads_are_pure(elide):
    # Checked loads read the packet buffer and are not forwarded, so
    # nothing built from them is packet-pure.
    fused = _fuse(app_chain("rakelimit"), ir_registry(0), elide=elide)
    assert fused.hoisted_calls == (4 if elide else 0)


# -- parity ------------------------------------------------------------------


@pytest.mark.parametrize("elide", [True, False])
@pytest.mark.parametrize("app", IR_APP_NAMES)
def test_fused_matches_interp_at_every_batch_size(app, elide):
    batches = _batches(_trace())
    assert [len(b) for b in batches] == list(BATCH_SIZES)
    assert any(p.proto == 0 for p in batches[-1])
    assert _replay(app, "fused", batches, elide) == _replay(
        app, "interp", batches, elide
    )


@pytest.mark.parametrize("app", ("rakelimit", "polycube", "sketches"))
def test_single_packet_process_matches_interp(app):
    pkts = _trace(n=40)
    seen = {}
    for backend in ("interp", "fused"):
        registry = ir_registry(2)
        nf = app_nf(app, backend=backend, registry=registry)
        for pkt in pkts:
            nf.process(pkt)
        seen[backend] = _observe(nf, registry)
    assert seen["interp"] == seen["fused"]


# -- what hoists and what must not -------------------------------------------


def _guarded(name, *body):
    """Header guard, then ``body``; r0 = 2 on the normal path."""
    return _prog(
        name,
        Load(R2, R1, 0),
        Load(R3, R1, 8),
        Mov(R4, R2),
        Alu("add", R4, Imm(HEADER_BYTES)),
        JmpIf("gt", R4, R3, "drop"),
        Load(R6, R2, PKT_SRC_IP),
        Load(R7, R2, PKT_DST_IP),
        *body,
        Mov(R0, Imm(2)),
        Exit(),
        "drop",
        Mov(R0, Imm(1)),
        Exit(),
    )


NOT_PURE = {
    # The key is a kfunc's return value (r0 held a pure value before).
    "kfunc_return": (
        Mov(R0, R7),
        Mov(R1, R6),
        Call("enetstl_sketch_cnt"),
        Mov(R1, R0),
        Call("enetstl_univ_sample"),
    ),
    # The key was spilled to the stack and reloaded over a pure value.
    "stack_reload": (
        Store(R10, -8, R6),
        Mov(R1, R7),
        Load(R1, R10, -8),
        Call("enetstl_univ_sample"),
    ),
    # The key register was defined in an earlier block.
    "earlier_block": (
        Alu("xor", R6, R7),
        JmpIf("eq", R7, Imm(0), "call"),
        Alu("add", R7, Imm(1)),
        "call",
        Mov(R1, R6),
        Call("enetstl_univ_sample"),
    ),
}

#: Key computations that stay packet-pure: every pure ALU op, with an
#: immediate and with a compound register operand (register shift
#: counts past 63 and a product that wraps past 2^64 included).
PURE_KEYS = {
    "xor_rsh": (Alu("xor", R6, R7), Alu("rsh", R6, Imm(3))),
    "add_sub_mul": (
        Alu("add", R6, R7),
        Alu("mul", R6, Imm(0x9E3779B97F4A7C15)),
        Alu("sub", R6, Imm(5)),
        Alu("sub", R7, R6),
        Mov(R6, R7),
    ),
    "and_or_lsh": (
        Alu("and", R6, Imm(0xFFFF00FF)),
        Alu("or", R6, R7),
        Alu("lsh", R6, Imm(13)),
        Alu("or", R6, R7),
    ),
    "register_shifts": (
        Mov(R4, R7),
        Alu("xor", R4, R6),
        Mov(R3, R6),
        Alu("lsh", R3, R4),
        Alu("rsh", R6, R4),
        Alu("xor", R6, R3),
    ),
}


@pytest.mark.parametrize("case", sorted(NOT_PURE))
def test_impure_hash_argument_is_not_hoisted(case):
    prog = _guarded(f"hoist_{case}", *NOT_PURE[case])
    fused = _fuse([prog], ir_registry(0))
    assert fused.hoisted_calls == 0
    assert "_fhl" not in fused.source
    _assert_parity([prog])


@pytest.mark.parametrize("case", sorted(PURE_KEYS))
def test_pure_hash_argument_is_hoisted(case):
    prog = _guarded(
        f"hoist_{case}",
        *PURE_KEYS[case],
        Mov(R1, R6),
        Call("enetstl_univ_sample"),
    )
    fused = _fuse([prog], ir_registry(0))
    # The universal sample's level hash and its level-0 row hash.
    assert fused.hoisted_calls == 2
    assert "_h0 = _fhl(_hk0, 500)" in fused.source
    assert "_h1 = _fhl(_hk0, 50)" in fused.source
    _assert_parity([prog])


def _assert_parity(progs):
    batches = _batches(_trace())
    seen = {}
    for backend in ("interp", "fused"):
        registry = ir_registry(5)
        nf = IrChainNf(BpfRuntime(), progs, registry=registry, backend=backend)
        for batch in batches:
            nf.process_batch(batch)
        seen[backend] = _observe(nf, registry)
    assert seen["interp"] == seen["fused"]


# -- chains with nothing to hoist are untouched -------------------------------


#: Katran's app kfuncs, whose specs :func:`_katran_standins` replaces.
KATRAN_KFUNCS = (
    "enetstl_conn_lookup",
    "enetstl_conn_insert",
    "enetstl_ch_pick",
    "enetstl_lb_stats",
)


def _katran_standins(registry):
    """``registry`` with each Katran app kfunc's inline spec replaced by
    a fixed stand-in: a call of the impl on the argument registers.
    The generated source is pinned, never run."""
    for name in KATRAN_KFUNCS:
        impl = registry.get(name).impl

        def spec(args, bind, hashed, name=name, impl=impl):
            fn = bind(name[len("enetstl_"):], impl)
            return [], f"{fn}({', '.join(args)})"

        impl._fuse_inline = spec
    return registry


def _no_hoist_chains():
    for elide in (True, False):
        registry = _katran_standins(ir_registry(0))
        yield f"katran/{elide}", app_chain("katran"), registry, elide
        for combo in bundled_chains():
            progs = [get_case(n).prog for n in combo]
            yield f"{'->'.join(combo)}/{elide}", progs, runnable_registry(0), elide


def test_no_hoist_sources_are_byte_identical():
    seen = {}
    for key, progs, registry, elide in _no_hoist_chains():
        fused = _fuse(progs, registry, elide)
        assert fused.hoisted_calls == 0, key
        seen[key] = hashlib.sha256(fused.source.encode()).hexdigest()
    assert seen == NO_HOIST_SOURCES


# -- observability -------------------------------------------------------------


#: Bundled stages that spill a scalar and reload it in the same block.
SPILL_RELOAD_STAGES = {"nf_classifier", "nf_maglev_pick"}


def test_verify_chains_reports_hoisted_calls(capsys):
    assert verify_main(["--chains", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["chains"]
    assert all(c["hoisted_calls"] == 0 for c in report["chains"])
    # Every bundled chain is acyclic after unrolling: no stage keeps
    # the dispatch loop, and each spill/reload stage forwards its load.
    assert all(c["dispatch_stages"] == [] for c in report["chains"])
    for c in report["chains"]:
        assert c["forwarded_stack_loads"] == len(
            SPILL_RELOAD_STAGES.intersection(c["chain"])
        ), c["chain"]
    assert verify_main(["--chains"]) == 0
    lines = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("FUSED")
    ]
    assert lines and all("0 hashes hoisted" in line for line in lines)


def test_apps_verify_prints_fused_stats(capsys):
    """``verify --chains`` reports the Fig. 7 app chains under their own
    key: each stage's explored states, the fuse counters and parity on
    the shared parity trace."""
    assert verify_main(["--chains", "--json", "--strict"]) == 0
    report = json.loads(capsys.readouterr().out)
    apps = {entry["app"]: entry for entry in report["apps"]}
    assert list(apps) == list(IR_APP_NAMES)
    assert report["summary"]["apps_parity_ok"] == len(IR_APP_NAMES)
    for app, expected in EXPECTED_HOISTED.items():
        entry = apps[app]
        assert entry["parity"] is True, app
        assert entry["hoisted_calls"] == expected
        assert entry["chain"] == [p.name for p in app_chain(app)]
        assert list(entry["states_explored"]) == entry["chain"]
        assert all(n > 0 for n in entry["states_explored"].values())
    assert all(a["inlined_kfuncs"] >= 1 for a in apps.values())
    assert all(a["forwarded_loads"] >= 4 for a in apps.values())
    # The heavy hitters of the parity trace cross the drop thresholds.
    for app in ("rakelimit", "sketches"):
        assert apps[app]["interp"]["actions"]["XDP_DROP"] > 0, app
    # Its replies hit the MACs Polycube's bridge learned: the FDB-hit
    # redirect and the flood both run, on both backends.
    for backend in ("interp", "fused"):
        actions = apps["polycube"][backend]["actions"]
        assert actions["XDP_REDIRECT"] > 0 and actions["XDP_PASS"] > 0
    assert verify_main(["--chains"]) == 0
    (line,) = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("APP     rakelimit: rake_parse (")]
    assert " states) -> rake_limit (" in line
    assert "1 kfuncs inlined, 5 header loads forwarded, 4 hashes " \
        "hoisted" in line


def test_parity_trace_repeats_flows():
    """Every program and chain replays one trace whose flows repeat, so
    a stateful kfunc (Katran's connection table) replays hits."""
    trace = _parity_trace()
    assert len({p.five_tuple for p in trace}) < len(trace) // 4
    replies = [
        (p.src_ip, p.dst_ip, p.src_port, p.dst_port)
        == (q.dst_ip, q.src_ip, q.dst_port, q.src_port)
        for q, p in zip(trace, trace[1:])
    ]
    assert sum(replies) >= len(trace) // 16
