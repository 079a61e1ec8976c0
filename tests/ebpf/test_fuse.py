"""Chain fuser: parity and specialization (repro.ebpf.fuse).

The fused closure's contract is the same bit-identical one the PR 5
JIT pinned, extended to whole chains: for every bundled chain
combination (and randomly fused fuzz chains), the fused backend must
produce the same verdict sequence, the same aggregated ``VmStats``,
the same ``Cycles`` totals *and* per-category charges, and the same
kfunc closure state (sketch rows, steering tables, PRNG position) as
running the interpreted chain stage by stage.
"""

import os
import random

import pytest

from repro.datastructs.countmin import CountMinSketch
from repro.ebpf.fuse import FuseError, fuse_chain
from repro.ebpf.insn import (
    R0,
    R1,
    R2,
    R3,
    R4,
    R6,
    Alu,
    Call,
    Exit,
    Imm,
    JmpIf,
    Load,
    Mov,
    Program,
)
from repro.ebpf.progs import (
    NF_CHAIN_STAGES,
    bundled_chains,
    get_case,
    runnable_registry,
)
from repro.ebpf.runtime import BpfRuntime
from repro.ebpf.verifier import Verifier, VerifierError
from repro.ebpf.vm import Vm
from repro.net.irnf import PASS_R0, IrChainNf, encode_packet
from repro.net.packet import Packet

from tests.ebpf.test_verifier_differential import _gen_program

SEED = 20260809
N_FUZZ_CHAINS = int(os.environ.get("REPRO_FUZZ_CHAINS", "40"))
FUZZ_POOL = int(os.environ.get("REPRO_FUZZ_PROGRAMS", "120"))


def _mk_packets(n, seed):
    rng = random.Random(seed)
    return [
        Packet(
            src_ip=rng.getrandbits(32),
            dst_ip=rng.getrandbits(32),
            src_port=rng.getrandbits(16),
            dst_port=rng.getrandbits(16),
            proto=rng.choice((6, 17)),
            size=rng.randint(64, 1500),
            timestamp_ns=rng.getrandbits(40),
        )
        for _ in range(n)
    ]


def _closure_value(registry, name, kind):
    """The ``kind`` object in kfunc ``name``'s impl closure; a bound
    method stands for the object it is bound to."""
    for cell in registry.get(name).impl.__closure__:
        v = cell.cell_contents
        v = getattr(v, "__self__", v)
        if isinstance(v, kind):
            return v
    raise LookupError(f"{name}: no {kind.__name__} in its closure")


def _cm_sketch(registry):
    return _closure_value(registry, "enetstl_cm_update", CountMinSketch)


def _kfunc_state(registry):
    """Mutable closure state behind the runnable kfuncs: count-min rows
    and the PRNG position (steering tables are immutable)."""
    return (
        tuple(map(tuple, _cm_sketch(registry).rows)),
        _closure_value(
            registry, "bpf_get_prandom_u32", random.Random
        ).getstate(),
    )


def _observe(nf, rt, registry, actions):
    snap = rt.cycles.snapshot()
    return (
        actions,
        tuple(nf.returns),
        nf.stats.steps,
        nf.stats.checks_performed,
        nf.stats.checks_elided,
        nf.stats.insn_cycles,
        nf.stats.check_cycles,
        rt.cycles.total,
        tuple(sorted((c.name, v) for c, v in snap.by_category.items())),
        _kfunc_state(registry),
    )


def _run_chain(progs, packets, backend, elide, reg_seed=0):
    rt = BpfRuntime()
    registry = runnable_registry(reg_seed)
    nf = IrChainNf(
        rt, progs, registry=registry, elide_checks=elide, backend=backend
    )
    actions = nf.process_batch(packets)
    return _observe(nf, rt, registry, tuple(sorted(actions.items())))


# -- bundled-chain parity ---------------------------------------------------


@pytest.mark.parametrize("elide", [True, False])
@pytest.mark.parametrize("combo", bundled_chains(), ids="->".join)
def test_bundled_chain_parity(combo, elide):
    progs = [get_case(n).prog for n in combo]
    pkts = _mk_packets(64, seed=SEED + len(combo))
    interp = _run_chain(progs, pkts, "interp", elide)
    fused = _run_chain(progs, pkts, "fused", elide)
    assert interp == fused


def test_single_packet_process_parity():
    progs = [get_case(n).prog for n in NF_CHAIN_STAGES]
    pkts = _mk_packets(16, seed=SEED + 99)

    rt_i = BpfRuntime()
    reg_i = runnable_registry(0)
    nf_i = IrChainNf(rt_i, progs, registry=reg_i, backend="interp")
    acts_i = [nf_i.process(p) for p in pkts]

    rt_f = BpfRuntime()
    reg_f = runnable_registry(0)
    nf_f = IrChainNf(rt_f, progs, registry=reg_f, backend="fused")
    acts_f = [nf_f.process(p) for p in pkts]

    assert acts_i == acts_f
    assert (_observe(nf_i, rt_i, reg_i, tuple(acts_i))
            == _observe(nf_f, rt_f, reg_f, tuple(acts_f)))


# -- specialization metadata ------------------------------------------------


def _verified(names, reg):
    verifier = Verifier(reg)
    return [verifier.verify(get_case(n).prog) for n in names]


def test_fused_chain_metadata():
    reg = runnable_registry(0)
    fc = fuse_chain(reg, _verified(NF_CHAIN_STAGES, reg))
    assert fc.source.startswith(
        "def _fused_nf_classifier__nf_cm_sketch__nf_maglev_pick")
    # cm_sketch's counted loop is unrolled inside the fused body too.
    assert fc.unrolled["nf_cm_sketch"] == {12: 4}
    # cm_update and maglev_pick publish inline specs; both must be
    # expanded (the fused closure calls no Python kfunc for them).
    assert fc.inlined_kfuncs == 2


def _deciding_stage(verified, registry, pkt):
    """The reference: run ``pkt`` through the chain stage by stage on
    fresh interpreted VMs until a verdict other than PASS.  Returns the
    index of the stage whose verdict was final and the steps taken."""
    enc = encode_packet(pkt)
    steps = 0
    for k, vp in enumerate(verified):
        vm = Vm(registry, packet=enc, proofs=vp)
        r0 = vm.run(vp.prog)
        steps += vm.stats.steps
        if r0 != PASS_R0:
            break
    return k, steps


def _prime_heavy_hitters(registry):
    """Count-min counters at the police threshold in the first three
    quarters of every row: a flow whose columns all land there is a
    heavy hitter, so ``nf_cm_sketch`` drops about a third of flows."""
    for row in _cm_sketch(registry).rows:
        row[: 3 * len(row) // 4] = [4096] * (3 * len(row) // 4)


@pytest.mark.parametrize(
    "combo", [c for c in bundled_chains() if len(c) > 1], ids="->".join
)
def test_rejected_packet_reaches_no_later_stage(combo):
    """A packet a non-final stage rejects runs no later stage.  Packet
    by packet, the fused chain's verdict, ``VmStats`` and kfunc state
    match the interpreted chain's and the stage-by-stage reference's,
    which stops at the rejecting stage, and the packet's steps are
    those of the stages up to that one.  Every non-final stage rejects
    some packet."""
    verified = _verified(combo, runnable_registry(0))
    ref, reg_i, reg_f = (runnable_registry(0) for _ in range(3))
    for reg in (ref, reg_i, reg_f):
        _prime_heavy_hitters(reg)
    nf_i = IrChainNf(BpfRuntime(), verified, registry=reg_i, backend="interp")
    nf_f = IrChainNf(BpfRuntime(), verified, registry=reg_f, backend="fused")
    rejected = set()
    for pkt in _mk_packets(96, seed=SEED + 5):
        stage, steps = _deciding_stage(verified, ref, pkt)
        before = nf_f.stats.steps
        assert nf_f.process(pkt) == nf_i.process(pkt)
        assert nf_f.returns == nf_i.returns
        assert nf_f.stats == nf_i.stats
        assert nf_f.stats.steps - before == steps
        assert _kfunc_state(reg_f) == _kfunc_state(reg_i) == _kfunc_state(ref)
        if stage < len(combo) - 1:
            assert nf_f.returns[-1] != PASS_R0
            rejected.add(stage)
    assert rejected == set(range(len(combo) - 1))


def _ktime_stage():
    """Guarded read of ``dst_ip``, then a ``bpf_ktime_get_ns`` call,
    whose impl publishes no ``_fuse_inline`` spec; the verdict is
    ``(now ^ dst_ip) & 3``, so some packets pass to the next stage."""
    return Program(
        [
            Load(R2, R1, 0),
            Load(R3, R1, 8),
            Mov(R4, R2),
            Alu("add", R4, Imm(16)),
            JmpIf("gt", R4, R3, 10),
            Load(R6, R2, 8),
            Call("bpf_ktime_get_ns"),
            Alu("xor", R0, R6),
            Alu("and", R0, Imm(3)),
            Exit(),
            Mov(R0, Imm(1)),
            Exit(),
        ],
        name="ktime_stage",
    )


def test_kfunc_without_inline_spec_is_called_directly():
    registry = runnable_registry(0)
    verifier = Verifier(registry)
    progs = [_ktime_stage(), get_case("nf_cm_sketch").prog]
    fc = fuse_chain(registry, [verifier.verify(p) for p in progs])
    # Only cm_update publishes a spec; the clock is a direct-bound call.
    assert fc.inlined_kfuncs == 1
    # Parity does not depend on inlining: the direct call agrees too.
    pkts = _mk_packets(32, seed=SEED + 7)
    interp = _run_chain(progs, pkts, "interp", True)
    assert interp == _run_chain(progs, pkts, "fused", True)
    assert set(interp[1]) > {PASS_R0}


def test_fuse_rejects_bad_input():
    reg = runnable_registry(0)
    with pytest.raises(FuseError):
        fuse_chain(reg, [])
    with pytest.raises(FuseError):
        fuse_chain(reg, [get_case("nf_classifier").prog])  # not verified


# -- fuzz chains ------------------------------------------------------------


def test_fuzz_chain_parity():
    """Fuse random 2–3 program chains drawn from the differential-fuzz
    generator's accept frontier and pin bit-identical behaviour against
    the interpreted chain on random traces."""
    rng = random.Random(SEED)
    verifier = Verifier(runnable_registry(SEED))
    accepted = []
    for idx in range(FUZZ_POOL):
        prog = _gen_program(rng, idx)
        try:
            accepted.append(verifier.verify(prog))
        except VerifierError:
            continue
    assert len(accepted) >= 2, "fuzz generator produced no accept pool"

    fused_runs = 0
    for i in range(N_FUZZ_CHAINS):
        chain = [rng.choice(accepted) for _ in range(rng.choice((2, 3)))]
        pkts = _mk_packets(6, seed=SEED + 1000 + i)
        reg_seed = rng.randrange(1 << 30)
        interp = _run_chain(chain, pkts, "interp", True, reg_seed=reg_seed)
        fused = _run_chain(chain, pkts, "fused", True, reg_seed=reg_seed)
        assert interp == fused, (
            f"fuzz chain {[vp.prog.name for vp in chain]} "
            f"(seed {SEED}, run {i}) diverged"
        )
        fused_runs += 1
    assert fused_runs == N_FUZZ_CHAINS
