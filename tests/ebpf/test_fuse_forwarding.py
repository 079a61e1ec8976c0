"""Header-load forwarding in fused chains (repro.ebpf.fuse).

A fused chain whose stages never write the packet reads each proven,
constant-offset header load straight from the ``Packet`` attribute and
drops the per-packet encode into the VM's packet buffer.  Every case
here runs the same chain interpreted and fused and requires identical
verdicts, ``VmStats``, cycle charges by category and kfunc state, plus
the forwarding decision the fuser reported.
"""

import pytest

from repro.apps.ir import IR_APP_NAMES, app_chain, ir_registry
from repro.ebpf.fuse import fuse_chain
from repro.ebpf.header import HEADER_BYTES, HEADER_FIELDS, HEADER_STRUCT
from repro.ebpf.insn import (
    R0,
    R1,
    R2,
    R3,
    R4,
    R6,
    Alu,
    Exit,
    Imm,
    JmpIf,
    Load,
    Mov,
    Program,
    Store,
)
from repro.ebpf.progs import bundled_chains, get_case, runnable_registry
from repro.ebpf.verifier import Verifier
from repro.net.irnf import encode_packet

from tests.ebpf.test_fuse import _ktime_stage, _mk_packets, _run_chain

SEED = 20261017

#: Timestamps where the u64 mask matters: negative, at and past 2**64.
WRAPPING_TIMESTAMPS = (
    -1, -(1 << 40) - 3, 1 << 64, (1 << 64) + 5, (1 << 70) | 9
)


def _trace():
    pkts = _mk_packets(24, seed=SEED)
    pkts += [p.with_timestamp(ts) for p, ts in zip(pkts, WRAPPING_TIMESTAMPS)]
    return pkts


def _read_at(off, name=None):
    """Guard ``data + off + 8 <= data_end``; return the u64 at that offset."""
    return Program(
        [
            Load(R2, R1, 0),
            Load(R3, R1, 8),
            Mov(R4, R2),
            Alu("add", R4, Imm(off + 8)),
            JmpIf("gt", R4, R3, 7),
            Load(R0, R2, off),
            Exit(),
            Mov(R0, Imm(1)),
            Exit(),
        ],
        name=name or f"read_{off}",
    )


def _fuse(progs, registry, **kw):
    verifier = Verifier(registry)
    return fuse_chain(registry, [verifier.verify(p) for p in progs], **kw)


def _assert_parity(progs, pkts, elide=True):
    interp = _run_chain(progs, pkts, "interp", elide)
    fused = _run_chain(progs, pkts, "fused", elide)
    assert interp == fused
    return fused


@pytest.mark.parametrize(
    "name,off", HEADER_FIELDS, ids=[n for n, _ in HEADER_FIELDS]
)
def test_every_header_offset_is_forwarded(name, off):
    prog = _read_at(off)
    fc = _fuse([prog], runnable_registry(0))
    assert fc.forwarded_loads == 1
    assert not fc.encodes_packet
    assert "_enc(" not in fc.source
    pkts = _trace()
    fused = _assert_parity([prog], pkts)
    field_index = [n for n, _ in HEADER_FIELDS].index(name)
    assert fused[1] == tuple(
        HEADER_STRUCT.unpack_from(encode_packet(p))[field_index] for p in pkts
    )


def test_stage_that_writes_pkt_disables_forwarding():
    # Stage 0 overwrites dst_ip and passes only if it reads its own
    # write back; stage 1 must see the freshly encoded header again.
    writer = Program(
        [
            Load(R2, R1, 0),
            Load(R3, R1, 8),
            Mov(R4, R2),
            Alu("add", R4, Imm(HEADER_BYTES)),
            JmpIf("gt", R4, R3, 9),
            Store(R2, 8, Imm(0xDEAD)),
            Load(R6, R2, 8),
            Mov(R0, Imm(2)),
            JmpIf("eq", R6, Imm(0xDEAD), 10),
            Mov(R0, Imm(1)),
            Exit(),
        ],
        name="write_dst_ip",
    )
    progs = [writer, _read_at(8)]
    fc = _fuse(progs, runnable_registry(0))
    assert fc.forwarded_loads == 0
    assert fc.encodes_packet
    pkts = _trace()
    fused = _assert_parity(progs, pkts)
    assert fused[1] == tuple(p.dst_ip for p in pkts)


@pytest.mark.parametrize(
    "progs",
    [
        pytest.param([get_case("pkt_var_offset").prog], id="variable-offset"),
        pytest.param([_read_at(4)], id="unaligned"),
        pytest.param([_read_at(HEADER_BYTES)], id="past-header"),
        pytest.param(
            [_read_at(0), _read_at(12, "read_12")], id="one-stage-of-two"
        ),
    ],
)
def test_unforwarded_pkt_load_keeps_the_encode(progs):
    fc = _fuse(progs, runnable_registry(0))
    assert fc.encodes_packet
    assert "_enc(" in fc.source
    _assert_parity(progs, _trace())


def test_checked_loads_keep_the_encode():
    prog = _read_at(0)
    fc = _fuse([prog], runnable_registry(0), elide_checks=False)
    assert fc.forwarded_loads == 0
    assert fc.encodes_packet
    _assert_parity([prog], _trace(), elide=False)


def test_kfunc_calls_without_inlining_keep_the_encode():
    # The clock kfunc publishes no inline spec, so the fused code hands
    # it ``vm`` and must keep the packet buffer encoded.
    progs = [_ktime_stage(), get_case("nf_classifier").prog]
    fc = _fuse(progs, runnable_registry(0))
    assert fc.inlined_kfuncs == 0
    assert fc.forwarded_loads > 0
    assert fc.encodes_packet
    assert "_enc(" in fc.source
    _assert_parity(progs, _trace())


@pytest.mark.parametrize("combo", bundled_chains(), ids="->".join)
def test_bundled_chains_skip_the_encode(combo):
    fc = _fuse([get_case(n).prog for n in combo], runnable_registry(0))
    assert "_enc(" not in fc.source
    assert not fc.encodes_packet
    assert fc.forwarded_loads >= len(combo)


@pytest.mark.parametrize("app", IR_APP_NAMES)
def test_app_chains_skip_the_encode(app):
    fc = _fuse(list(app_chain(app)), ir_registry(0))
    assert "_enc(" not in fc.source
    assert not fc.encodes_packet
    assert fc.forwarded_loads > 0

