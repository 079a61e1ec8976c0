"""Fused-chain parity through the data plane, clean and under chaos.

PR 5 pinned compiled/interp parity on the clean path only.  These
tests pin the fused chain backend (``repro.ebpf.fuse`` via
:class:`repro.net.irnf.IrChainNf`) against the interpreted chain
through the *full* stack — :class:`XdpPipeline`, :class:`ReplaySession`,
and :class:`RssDispatcher` — including under :mod:`repro.faults` chaos
schedules: packet corruption/truncation, helper and map errors, core
wedge and core crash.  Error counters, ``XDP_ABORTED`` accounting,
cycle charges, and watchdog failure records must all be bit-identical.
"""

import random

import pytest

from repro.apps.ir import app_nf_factory, fig7_nfs
from repro.ebpf import fuse
from repro.ebpf.progs import NF_CHAIN_STAGES, get_case
from repro.faults import FaultPlan
from repro.net.multicore import RssDispatcher, chain_nf_factory
from repro.net.packet import Packet
from repro.net.xdp import ReplaySession, XdpPipeline
from tests.net.per_packet import PerPacketNF

SEED = 20260809
PROGS = [get_case(n).prog for n in NF_CHAIN_STAGES]


def _mk_trace(n, seed=SEED):
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


def _run_dispatcher(backend, faults=None, n_cores=4, n_packets=400,
                    progs=PROGS):
    disp = RssDispatcher(
        chain_nf_factory(progs, backend=backend),
        n_cores=n_cores,
        faults=faults,
    )
    res = disp.run(_mk_trace(n_packets))
    observed = (
        res.accounting(),
        dict(res.errors),
        res.total_cycles,
        tuple(sorted((c.name, v) for c, v in res.by_category.items())),
        tuple(tuple(nf.returns) for nf in disp.nfs),
        tuple(f.describe() for f in res.failures),
        dict(res.injected),
    )
    return res, observed


# -- clean path -------------------------------------------------------------


def test_dispatcher_clean_parity():
    _, interp = _run_dispatcher("interp")
    _, fused = _run_dispatcher("fused")
    assert interp == fused


def test_pipeline_and_replay_session_parity():
    from repro.ebpf.progs import runnable_registry
    from repro.ebpf.runtime import BpfRuntime
    from repro.net.irnf import IrChainNf

    pkts = _mk_trace(200)
    observed = {}
    for backend in ("interp", "fused"):
        rt = BpfRuntime()
        nf = IrChainNf(
            rt, PROGS, registry=runnable_registry(0), backend=backend
        )
        pipe = XdpPipeline(nf)
        batch_result = pipe.run(pkts[:100])
        packet_result = XdpPipeline(PerPacketNF(nf)).run(pkts[100:150])

        sess = ReplaySession(pipe)
        for i in range(150, 200, 16):
            sess.feed(pkts[i:i + 16])
        observed[backend] = (
            batch_result, packet_result, sess.finish(), tuple(nf.returns),
            rt.cycles.total,
        )
    assert observed["interp"] == observed["fused"]


# -- chaos schedules --------------------------------------------------------


CHAOS = FaultPlan(
    seed=77,
    drop_rate=0.03,
    corrupt_rate=0.05,
    truncate_rate=0.03,
    dup_rate=0.02,
    helper_rate=0.04,
    map_full_rate=0.04,
    map_nomem_rate=0.02,
)


def test_chaos_parity_and_aborted_accounting():
    res_i, interp = _run_dispatcher("interp", faults=CHAOS)
    res_f, fused = _run_dispatcher("fused", faults=CHAOS)
    assert interp == fused
    # The schedule actually injected faults: some packets aborted with
    # attributed error counters, identically on both backends.
    assert res_f.aborted > 0
    assert res_f.errors
    assert res_f.errors == res_i.errors
    assert res_f.aborted == res_i.aborted


def test_chaos_full_accounting_fused():
    res, _ = _run_dispatcher("fused", faults=CHAOS)
    assert res.is_fully_accounted
    acct = res.accounting()
    assert (acct["packets_in"] + acct["duplicated"]
            == acct["forwarded"] + acct["dropped"] + acct["aborted"])


#: The other chain lengths; the 4-NF chain re-enters the count-min stage.
CHAINS = {
    "1nf": ("nf_classifier",),
    "2nf": ("nf_classifier", "nf_cm_sketch"),
    "4nf": ("nf_classifier", "nf_cm_sketch", "nf_cm_sketch",
            "nf_maglev_pick"),
}


@pytest.mark.parametrize("combo", CHAINS.values(), ids=CHAINS)
def test_clean_and_chaos_parity_at_every_chain_length(combo):
    """One core and four, clean and under chaos: fused equals interp."""
    progs = [get_case(n).prog for n in combo]
    for n_cores in (1, 4):
        for faults in (None, CHAOS):
            runs = [_run_dispatcher(b, faults, n_cores, progs=progs)[1]
                    for b in ("interp", "fused")]
            assert runs[0] == runs[1], (n_cores, faults)


def test_core_wedge_parity():
    plan = FaultPlan(seed=5, wedge_core=1, wedge_at=30)
    res_i, interp = _run_dispatcher("interp", faults=plan, n_packets=3000)
    res_f, fused = _run_dispatcher("fused", faults=plan, n_packets=3000)
    assert interp == fused
    # The watchdog fired and recorded the same failure on both backends.
    assert res_f.failures
    kinds = {f.describe()["kind"] for f in res_f.failures}
    assert kinds == {f.describe()["kind"] for f in res_i.failures}


def test_core_crash_parity():
    plan = FaultPlan(seed=9, crash_core=2, crash_at=10, corrupt_rate=0.02)
    _, interp = _run_dispatcher("interp", faults=plan)
    _, fused = _run_dispatcher("fused", faults=plan)
    assert interp == fused


def test_chain_factory_requires_private_runtimes():
    factory = chain_nf_factory(PROGS, backend="fused")
    a, b = factory(0), factory(1)
    assert a.rt is not b.rt
    assert a.registry is not b.registry


def test_each_nf_is_fused_exactly_once(monkeypatch):
    """One fuse per NF, at attach time, seen through the
    ``repro.ebpf.fuse`` module attribute (as a layer tracer patches
    it): each core's NF and each Fig. 7 build fuses its own chain."""
    calls = []
    real = fuse.fuse_chain

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(fuse, "fuse_chain", counting)
    disp = RssDispatcher(app_nf_factory("katran"), n_cores=4)
    assert len(calls) == 4
    assert calls == [nf.registry for nf in disp.nfs]
    assert len({nf._fused.source for nf in disp.nfs}) == 1
    del calls[:]
    fig7_nfs("rakelimit")
    assert len(calls) == 2
