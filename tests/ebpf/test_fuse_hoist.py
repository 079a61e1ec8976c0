"""The fused chain's per-batch hash prologue (repro.ebpf.fuse).

An inline kfunc spec may read ``fast_hash32(arg, seed)`` from a list
the fuser computes for the whole batch in lanes, but only when the
argument is *packet-pure* at the call: built from forwarded header
loads, immediates and mov/ALU on such values within the call's block.
Pinned here: which app hashes hoist, bit-for-bit parity with the
interpreter at every batch size around the lane kernel's crossover,
the cases that must not hoist, and that a chain with nothing to hoist
generates exactly the source it did before the prologue existed.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.apps.__main__ import main as apps_main
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
from repro.ebpf.verify import main as verify_main
from repro.net.flowgen import FlowGenerator
from repro.net.irnf import IrChainNf
from repro.net.packet import MIN_FRAME_BYTES

from tests.apps.test_ir_apps import _static_fdb

#: Batch sizes around the lane kernel's crossover (20 keys) and its
#: 64-lane block, plus a full dispatcher batch.
BATCH_SIZES = (1, 2, 19, 20, 63, 64, 65, 256)

EXPECTED_HOISTED = {"katran": 0, "rakelimit": 4, "polycube": 2, "sketches": 2}

#: sha256 of the fused source of every chain with nothing to hoist,
#: recorded before the hash prologue existed: such chains must generate
#: byte-identical code.  Key: ``chain/elide_checks``.
NO_HOIST_SOURCES = {
    "katran/True": "1e7bc8277addc1f49a584290ee5a74def66b3f5bb29d25c921c343f443cd4891",
    "nf_classifier/True": "26023a6d458541b3501681e04fd45d809616d4c4e7caf1245b4aaf3a0c60bf26",
    "nf_cm_sketch/True": "4cdd824e4bbed4f657c4206502b29f054129dd1c2cf10478df33b3fb4cc9f3bd",
    "nf_maglev_pick/True": "dd6a928c382c804a5463e22305491058f00161abd61449939ad51cb845a5ca57",
    "nf_classifier->nf_cm_sketch/True": "13ef610853608942bbe8083944ebec8cd1cc9577da527c59e356ce777fb1770e",
    "nf_classifier->nf_maglev_pick/True": "04d46b34f5bf208115438842d3db8416e1a536832d64edfe4d071cd601b0c0ef",
    "nf_cm_sketch->nf_maglev_pick/True": "7b1c0d2b8a46096f8db79790d8873a65cba7091389bbc5ed7562215643212823",
    "nf_classifier->nf_cm_sketch->nf_maglev_pick/True": "c7a611ecdae11c1f6a8cb09affcd895233f732167a2fd97806d6f94ca0243c00",
    "katran/False": "c174f44dbed6f4ab6ca7d232074a76a94ec8f4dcb8acedaad803a472b5a114fd",
    "nf_classifier/False": "01412b1fb03b2a0bdffa79340eeba2cf357e1455f513c7cba3d2b18d2ca79c33",
    "nf_cm_sketch/False": "48bca3fa647df839dfadfb8269203b8ef0d63302536ade7b657b06534cdf39a0",
    "nf_maglev_pick/False": "2f94999d02a4bb620799ece122d245cd1d0d81ccbca31253d26a137239daf643",
    "nf_classifier->nf_cm_sketch/False": "c29b514cfe5afe97b20fce78ca2617ba77dd3bded1167a3233dba189c5d8ae3a",
    "nf_classifier->nf_maglev_pick/False": "ecffc33e0cafed8bdcd44a89377c904217e673b9d568bd679768b2784e10e0e1",
    "nf_cm_sketch->nf_maglev_pick/False": "eff8a6250d7e601d5c90e9549779e8fc8b2fa49487a0566e1df21aa6d5033c3c",
    "nf_classifier->nf_cm_sketch->nf_maglev_pick/False": "41baaa45e8b936fdd1a971de07be31b175359c5ee7128a335462cd05c97cc834",
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
        st.sk_rows,
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


def _no_hoist_chains():
    for elide in (True, False):
        yield f"katran/{elide}", app_chain("katran"), ir_registry(0), elide
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


def test_verify_chains_reports_hoisted_calls(capsys):
    assert verify_main(["--chains", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["chains"]
    assert all(c["hoisted_calls"] == 0 for c in report["chains"])
    assert verify_main(["--chains"]) == 0
    lines = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("FUSED")
    ]
    assert lines and all("0 hashes hoisted" in line for line in lines)


def test_apps_verify_prints_fused_stats(capsys):
    assert apps_main(["--verify", "--json"]) == 0
    fused = json.loads(capsys.readouterr().out)["fused"]
    assert set(fused) == set(IR_APP_NAMES)
    for app, expected in EXPECTED_HOISTED.items():
        assert fused[app]["hoisted_calls"] == expected
    assert all(f["inlined_kfuncs"] >= 1 for f in fused.values())
    assert all(f["forwarded_loads"] >= 4 for f in fused.values())
    assert apps_main(["--verify"]) == 0
    out = capsys.readouterr().out
    assert "rakelimit: fused (1 kfuncs inlined, 5 header loads forwarded, " \
        "4 hashes hoisted)" in out
