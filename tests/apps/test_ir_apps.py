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
import re

import pytest

from repro.apps.ir import (
    CH_RING_SIZE,
    IR_APP_NAMES,
    KATRAN_REALS,
    app_chain,
    app_nf,
    app_nf_factory,
    ir_registry,
)
from repro.datastructs.cuckoo import BlockedCuckooTable
from repro.ebpf.progs import runnable_registry
from repro.ebpf.runtime import BpfRuntime
from repro.ebpf.verifier import Verifier
from repro.faults import FaultPlan
from repro.net.irnf import IrChainNf
from repro.net.flowgen import FlowGenerator
from repro.net.multicore import RssDispatcher
from repro.net.queueing import ArrivalProcess, QueueingConfig

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
    verifier = Verifier(ir_registry(0))
    states = {
        prog.name: verifier.verify(prog).states_explored  # raises on reject
        for app in IR_APP_NAMES
        for prog in app_chain(app)
    }
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


@pytest.mark.parametrize("app", IR_APP_NAMES)
def test_fused_app_emits_only_live_work(app):
    """Each app chain is acyclic, reads no uninitialized register and
    compares its bounds against the frame size: its fused source has
    no dispatch loop, no register zeroing and no ``data_end`` pointer."""
    fused = app_nf(app, backend="fused")._fused
    assert fused.dispatch_stages == ()
    assert "while True" not in fused.source
    assert not re.search(r"^\s*r\d+ = 0$", fused.source, re.M)
    assert "_pe(" not in fused.source


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
    assert kat.alive == [1]
    assert set(kat.ring) == {1}


@pytest.mark.parametrize(
    "failed, rejected",
    [(1, 0), (0, 1), (0, 0), (0, 7)],
    ids=["last-alive-0", "last-alive-1", "already-failed", "unknown"],
)
def test_rejected_fail_real_changes_nothing(failed, rejected):
    """A rejected failure (the last alive real, or one not alive)
    leaves ``alive``, ``ring`` and ``conns`` exactly as they were."""
    registry = ir_registry(4, n_reals=2)
    nf = app_nf("katran", backend="fused", seed=4, registry=registry)
    for pkt in _trace(n=300):
        nf.process(pkt)
    kat = registry.app_state.katran
    kat.fail_real(failed)
    for pkt in _trace(n=300):
        nf.process(pkt)
    before = (list(kat.alive), list(kat.ring), sorted(kat.conns.items()),
              kat.evicted)
    assert before[2]
    with pytest.raises(ValueError):
        kat.fail_real(rejected)
    assert (list(kat.alive), list(kat.ring), sorted(kat.conns.items()),
            kat.evicted) == before


# -- multi-core -------------------------------------------------------------


#: Packet, helper and map faults every app must survive bit-identically.
CHAOS = FaultPlan(
    seed=77,
    drop_rate=0.02,
    corrupt_rate=0.02,
    truncate_rate=0.01,
    helper_rate=0.02,
    map_full_rate=0.02,
)


def _fleet_witness(res, disp):
    assert res.is_fully_accounted
    return (
        res.accounting(),
        dict(res.actions),
        dict(res.errors),
        dict(res.injected),
        res.total_cycles,
        tuple(tuple(nf.returns) for nf in disp.nfs),
    )


def _run_fleet(app, backend, trace, faults=None):
    disp = RssDispatcher(
        app_nf_factory(app, backend=backend, registry_seed=2),
        n_cores=4,
        steering="ntuple",
        faults=faults,
    )
    res = disp.run(trace)
    return res, _fleet_witness(res, disp)


@pytest.mark.parametrize("app", IR_APP_NAMES)
def test_multicore_interp_fused_parity(app):
    trace = _trace(n=1600, seed=41)
    results = {b: _run_fleet(app, b, trace)[1] for b in BACKENDS}
    assert results["interp"] == results["fused"]


@pytest.mark.parametrize("app", IR_APP_NAMES)
def test_multicore_chaos_parity(app):
    trace = _trace(n=1500, n_flows=1024, seed=14)
    res, fused = _run_fleet(app, "fused", trace, faults=CHAOS)
    _, interp = _run_fleet(app, "interp", trace, faults=CHAOS)
    assert sum(res.injected.values()) > 0
    assert fused == interp


def _cluster_day(backend, trace):
    """Fused or interpreted Katran on two queued cores under chaos; a
    backend fails fleet-wide halfway through a flash crowd."""
    disp = RssDispatcher(
        app_nf_factory("katran", backend=backend, registry_seed=4),
        n_cores=2,
        steering="ntuple",
        queueing=QueueingConfig(rx_ring_size=256, batch_timeout_ns=20_000),
        faults=CHAOS,
    )
    half = len(trace) // 2
    first = disp.run(trace[:half])
    reports = [nf.registry.app_state.katran.fail_real(3) for nf in disp.nfs]
    second = disp.run(trace[half:])
    witness = tuple(
        _fleet_witness(res, disp) + (tuple(res.latencies_ns),)
        for res in (first, second)
    ) + (tuple(tuple(sorted(r.items())) for r in reports),)
    return (first, second), reports, witness


def test_katran_cluster_day_parity():
    n_packets, seed = 2000, 9
    base_pps, peak_pps = 500_000.0, 3_500_000.0
    arrivals = ArrivalProcess.flash_crowd(
        base_pps=base_pps, peak_pps=peak_pps,
        lead_s=(n_packets / 2) / base_pps,
        burst_s=(n_packets / 4) / peak_pps, seed=seed,
    )
    trace = list(FlowGenerator(
        n_flows=512, distribution="zipf", zipf_s=1.1, seed=seed,
    ).iter_trace_bursty(n_packets, arrivals))

    phases, reports, fused = _cluster_day("fused", trace)
    assert _cluster_day("interp", trace)[2] == fused
    assert sum(r["evicted"] for r in reports) > 0
    disruption = sum(r["moved"] for r in reports) / (
        reports[0]["ring_size"] * len(reports))
    assert 0.0 < disruption < 0.5
    for res in phases:
        assert res.aggregate_mpps > 0
        assert res.p99_latency_us >= res.p50_latency_us >= 0


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
    table = BlockedCuckooTable(64, 4)
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
