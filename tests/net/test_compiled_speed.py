"""Compiled-speed bars: the fused backend against the interpreter.

Each configuration replays one trace through ``process_batch`` three
times per backend, each time on a fresh runtime and NF, and keeps the
best wall-clock time.  The bars sit far below the measured ratios
(10-25x on these traces on a 2-vCPU x86-64 host), so a failure means
fusion stopped paying, not that the host was busy.  Every run is also
a witness check: all six runs of one configuration return the same
verdicts and charge the same cycles.
"""

import time

import pytest

from repro.apps.ir import IR_APP_NAMES, app_nf, ir_registry
from repro.ebpf.progs import NF_CHAIN_STAGES, get_case, runnable_registry
from repro.ebpf.runtime import BpfRuntime
from repro.net.flowgen import FlowGenerator
from repro.net.irnf import IrChainNf

REPS = 3


def _best_pps(make_nf, trace):
    best, witness = float("inf"), None
    for _ in range(REPS):
        nf = make_nf()
        t0 = time.perf_counter()
        nf.process_batch(trace)
        best = min(best, time.perf_counter() - t0)
        rep = (tuple(nf.returns), nf.rt.cycles.total,
               nf.stats.insn_cycles, nf.stats.check_cycles)
        assert witness is None or rep == witness, "repetitions diverged"
        witness = rep
    return len(trace) / best, witness


def _fused_over_interp(make_nf, trace):
    interp_pps, interp = _best_pps(lambda: make_nf("interp"), trace)
    fused_pps, fused = _best_pps(lambda: make_nf("fused"), trace)
    assert fused == interp
    return fused_pps / interp_pps


@pytest.mark.parametrize("name", NF_CHAIN_STAGES)
def test_single_program_fused_speed(name):
    trace = FlowGenerator(n_flows=64, seed=3).trace(1500)
    prog = get_case(name).prog
    speedup = _fused_over_interp(
        lambda backend: IrChainNf(BpfRuntime(seed=1), [prog], seed=1,
                                  backend=backend),
        trace,
    )
    assert speedup >= 1.5, f"{name}: fused only {speedup:.2f}x interp"


def test_three_nf_chain_fused_speed():
    trace = FlowGenerator(n_flows=64, seed=3).trace(1200)
    progs = [get_case(n).prog for n in NF_CHAIN_STAGES]
    speedup = _fused_over_interp(
        lambda backend: IrChainNf(BpfRuntime(seed=1), progs,
                                  registry=runnable_registry(1),
                                  backend=backend),
        trace,
    )
    assert speedup >= 3.0, f"3-NF chain: fused only {speedup:.2f}x interp"


@pytest.mark.parametrize("app", IR_APP_NAMES)
def test_app_fused_speed(app):
    trace = FlowGenerator(n_flows=1024, distribution="zipf", zipf_s=1.1,
                          seed=14).trace(1500)
    speedup = _fused_over_interp(
        lambda backend: app_nf(app, rt=BpfRuntime(seed=1), backend=backend,
                               seed=1, registry=ir_registry(1)),
        trace,
    )
    assert speedup >= 2.0, f"{app}: fused only {speedup:.2f}x interp"
