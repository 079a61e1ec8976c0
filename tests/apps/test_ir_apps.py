"""Verified-IR app ports: strict verification, 2-backend parity,
control-plane failover, and multi-core runs (PR 10 tentpole).

The contract under test, per app: every stage verifies (strict — any
rejection is a failure), and the interpreted and fused builds produce
bit-identical verdict sequences, VM statistics, and cycle ledgers over
the same trace with same-seed registries.  Katran
additionally pins the control plane: failing a backend repacks the CH
ring in place — visible to already-fused closures — with Maglev-grade
disruption and connection eviction.
"""

import ast
import itertools

import pytest

from repro.apps.ir import (
    CH_RING_SIZE,
    IR_APP_NAMES,
    KATRAN_REALS,
    app_chain,
    app_nf,
    app_nf_factory,
    ir_registry,
    verify_app_chains,
)
from repro.datastructs.cuckoo import BlockedCuckooTable
from repro.ebpf.progs import runnable_registry
from repro.ebpf.runtime import BpfRuntime
from repro.net.irnf import IrChainNf
from repro.net.flowgen import FlowGenerator
from repro.net.multicore import RssDispatcher

SEED = 1009
BACKENDS = ("interp", "fused")


def _trace(n=1200, n_flows=192, seed=SEED):
    return FlowGenerator(
        n_flows=n_flows, distribution="zipf", zipf_s=1.1, seed=seed
    ).trace(n)


def _static_fdb(registry, trace):
    """Install static FDB entries (control-plane seeded, like a bridge
    with pre-provisioned stations) for half the destinations so the
    forward stage exercises both REDIRECT and flood paths."""
    fdb = registry.app_state.fdb
    for i, pkt in enumerate(trace):
        if i % 2 == 0:
            mac = pkt.dst_ip | (pkt.dst_port << 32)
            fdb[mac] = pkt.dst_port % 8


def _run(app, backend, trace, seed=3):
    registry = ir_registry(seed)
    if app == "polycube":
        _static_fdb(registry, trace)
    nf = app_nf(app, backend=backend, seed=seed, registry=registry)
    for pkt in trace:
        nf.process(pkt)
    return nf


def _witness(nf):
    return (
        tuple(nf.returns),
        nf.rt.cycles.total,
        nf.rt.cycles.breakdown(),
        nf.stats.insn_cycles,
        nf.stats.check_cycles,
        nf.stats.steps,
    )


# -- verification -----------------------------------------------------------


def test_all_stages_verify_strict():
    states = verify_app_chains(strict=True)  # raises on any rejection
    assert len(states) == 8
    assert all(n > 0 for n in states.values())


def test_unknown_app_rejected():
    with pytest.raises(ValueError):
        app_chain("netfilter")


def test_chains_are_two_stage_pipelines():
    for name in IR_APP_NAMES:
        chain = app_chain(name)
        assert len(chain) == 2


# -- backend parity ---------------------------------------------------------


@pytest.mark.parametrize("app", IR_APP_NAMES)
def test_two_backend_parity(app):
    trace = _trace()
    witnesses = {b: _witness(_run(app, b, trace)) for b in BACKENDS}
    assert witnesses["interp"] == witnesses["fused"]


def test_verdict_mix_is_nontrivial():
    trace = _trace(n=2400)
    mixes = {}
    for app in IR_APP_NAMES:
        nf = _run(app, "fused", trace)
        mixes[app] = set(nf.returns)
    assert mixes["katran"] == {3, 4}          # TX / REDIRECT by real
    assert mixes["rakelimit"] == {1, 2}       # zipf head gets limited
    assert mixes["polycube"] == {2, 4}        # flood + known-MAC redirect
    assert mixes["sketches"] == {1, 2}        # heavy hitters policed


def test_fusion_inlines_app_kfuncs():
    for app in IR_APP_NAMES:
        nf = app_nf(app, backend="fused", seed=1)
        assert nf._fused.inlined_kfuncs >= 1, app


def test_reversed_polycube_chain_parity():
    # Forward runs first: its inline FDB lookup executes before the
    # learn stage reads the packet's source fields.
    trace = _trace()
    witnesses = {}
    for backend in ("interp", "fused"):
        registry = ir_registry(3)
        _static_fdb(registry, trace)
        nf = IrChainNf(
            BpfRuntime(),
            list(reversed(app_chain("polycube"))),
            registry=registry,
            backend=backend,
        )
        nf.process_batch(trace)
        witnesses[backend] = _witness(nf)
    assert witnesses["interp"] == witnesses["fused"]
    assert set(witnesses["fused"][0]) == {2, 4}


#: Locals of the fused packet loop; an inline spec assigning one would
#: clobber loop state that later stages and the accounting read.
FUSED_LOOP_LOCALS = frozenset((
    "_pp", "_n", "_PKTEND", "_rr", "_counts", "_steps", "_mem", "_div",
    "_eli", "_i",
))


@pytest.mark.parametrize("make_registry", [ir_registry, runnable_registry])
def test_inline_specs_leave_fused_loop_locals_alone(make_registry):
    specs = [
        (meta.name, meta.impl._fuse_inline, len(meta.args))
        for meta in make_registry(0)
        if getattr(meta.impl, "_fuse_inline", None) is not None
    ]
    assert specs
    # Without a hash prologue, and with every argument's hash in one.
    hashers = (lambda i, seed: None, lambda i, seed: f"_h{i}_{seed}")
    for (name, spec, n_args), hashed in itertools.product(specs, hashers):
        setup, expr = spec(
            [f"r{1 + i}" for i in range(n_args)],
            lambda hint, value: f"_c{hint}",
            hashed,
        )
        tree = ast.parse("\n".join([*setup, f"r0 = {expr}"]))
        assigned = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        assert not assigned & FUSED_LOOP_LOCALS, name


# -- katran control plane ---------------------------------------------------


def test_katran_failover_repacks_in_place():
    trace = _trace(n=1500)
    registry = ir_registry(5)
    nf = app_nf("katran", backend="fused", seed=5, registry=registry)
    for pkt in trace:
        nf.process(pkt)
    kat = registry.app_state.katran
    assert len(kat.conns) > 0
    victim = kat.ring[0]
    pinned_before = sum(1 for _, real in kat.conns.items() if real == victim)
    report = kat.fail_real(victim)
    assert report["evicted"] == pinned_before > 0
    assert victim not in kat.ring
    assert victim not in kat.alive
    # Maglev minimal disruption: slots not owned by the victim mostly
    # keep their backend (well under half move on a repack).
    assert report["moved"] / CH_RING_SIZE < 0.5
    # The fused closure sees the repack immediately: replay the trace
    # and confirm no flow lands on the failed real.
    for pkt in trace:
        nf.process(pkt)
    assert all(real != victim for _, real in kat.conns.items())
    assert set(nf.returns) <= {3, 4}


def test_katran_failover_parity_across_backends():
    trace = _trace(n=900, seed=77)
    phase1, phase2 = trace[:450], trace[450:]
    witnesses = {}
    for backend in BACKENDS:
        registry = ir_registry(9)
        nf = app_nf("katran", backend=backend, seed=9, registry=registry)
        for pkt in phase1:
            nf.process(pkt)
        kat = registry.app_state.katran
        report = kat.fail_real(kat.ring[0])
        for pkt in phase2:
            nf.process(pkt)
        witnesses[backend] = (_witness(nf), tuple(sorted(report.items())))
    assert witnesses["interp"] == witnesses["fused"]


def test_fail_last_real_rejected():
    registry = ir_registry(0, n_reals=2)
    kat = registry.app_state.katran
    kat.fail_real(0)
    with pytest.raises(ValueError):
        kat.fail_real(1)


# -- multi-core -------------------------------------------------------------


@pytest.mark.parametrize("app", IR_APP_NAMES)
def test_multicore_interp_fused_parity(app):
    trace = _trace(n=1600, seed=41)
    results = {}
    for backend in BACKENDS:
        disp = RssDispatcher(
            app_nf_factory(app, backend=backend, registry_seed=2),
            n_cores=4,
            steering="ntuple",
        )
        res = disp.run(trace)
        assert res.is_fully_accounted
        results[backend] = (
            dict(res.actions),
            res.total_cycles,
            res.packets_in,
        )
    assert results["interp"] == results["fused"]


def test_multicore_per_core_state_is_private():
    disp = RssDispatcher(
        app_nf_factory("katran", backend="fused", registry_seed=0),
        n_cores=2,
        steering="ntuple",
    )
    disp.run(_trace(n=400))
    states = [nf.registry.app_state for nf in disp.nfs]
    assert states[0] is not states[1]
    assert states[0].katran.conns is not states[1].katran.conns


# -- cuckoo control-plane snapshot -----------------------------------------


def test_cuckoo_items_snapshot():
    table = BlockedCuckooTable(64, 4, seed=3)
    pairs = {k: k * 7 for k in range(40)}
    for k, v in pairs.items():
        assert table.insert(k, v)
    assert dict(table.items()) == pairs
    table.delete(5)
    assert 5 not in dict(table.items())


def test_ring_covers_all_reals():
    registry = ir_registry(0)
    kat = registry.app_state.katran
    assert set(kat.ring) == set(range(KATRAN_REALS))
