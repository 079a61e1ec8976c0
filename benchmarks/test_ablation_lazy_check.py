"""Ablation: lazy vs eager safety checking (§4.2, §4.1).

Two flavors of the same design claim — safety work moved off the hot
path buys back real cycles:

- the memory wrapper: validating every ``get_next`` against a table of
  live relationships (eager) costs measurably more than deferring all
  work to free time (lazy), because traversals vastly outnumber frees;
- the verifier: runtime checks the range-aware verifier discharged
  statically (packet bounds, stack bounds, divisor != 0) are *elided*
  from the interpreter's hot path, with bit-identical NF output.
"""

from repro.ebpf.cost_model import ExecMode
from repro.ebpf.progs import get_case
from repro.ebpf.runtime import BpfRuntime
from repro.net.flowgen import FlowGenerator
from repro.net.irnf import IrChainNf
from repro.net.xdp import XdpPipeline
from repro.nfs.kv_skiplist import OP_LOOKUP, OP_UPDATE_DELETE, SkipListKV

MASK64 = (1 << 64) - 1


def _run(checking: str, op_mix: str, n_packets: int = 1200) -> float:
    fg = FlowGenerator(n_flows=4096, seed=21)
    rt = BpfRuntime(mode=ExecMode.ENETSTL, seed=21)
    nf = SkipListKV(rt, op_mix=op_mix, checking=checking)
    nf.preload(f.key_int & MASK64 for f in fg.flows)
    rt.cycles.reset()
    return XdpPipeline(nf).run(fg.trace(n_packets)).cycles_per_packet


def test_lazy_vs_eager_checking(run_once):
    def experiment():
        return {
            op_mix: {checking: _run(checking, op_mix) for checking in ("lazy", "eager")}
            for op_mix in (OP_LOOKUP, OP_UPDATE_DELETE)
        }

    results = run_once(experiment)
    print()
    print("== Ablation: lazy vs eager safety checking (skip-list KV) ==")
    for op_mix, data in results.items():
        overhead = data["eager"] / data["lazy"] - 1
        print(
            f"  {op_mix:14s}: lazy {data['lazy']:7.1f} cyc/pkt, "
            f"eager {data['eager']:7.1f} cyc/pkt -> eager costs +{overhead:.1%}"
        )
        # Eager checking must add real per-traversal overhead...
        assert overhead > 0.08
        # ...but not change functional behavior (same cost order).
        assert data["eager"] < 3 * data["lazy"]


def _run_ir(elide_checks: bool, n_packets: int = 600):
    rt = BpfRuntime(mode=ExecMode.ENETSTL, seed=7)
    nf = IrChainNf(
        rt, [get_case("nf_classifier").prog], elide_checks=elide_checks, seed=7
    )
    fg = FlowGenerator(n_flows=512, seed=7)
    result = XdpPipeline(nf).run(fg.trace(n_packets))
    return result, nf


def test_static_proof_elision(run_once):
    """Verifier-proven checks elided at runtime: fewer cycles, same bits."""

    def experiment():
        checked_res, checked_nf = _run_ir(elide_checks=False)
        elided_res, elided_nf = _run_ir(elide_checks=True)
        return {
            "checked": (checked_res, checked_nf),
            "elided": (elided_res, elided_nf),
        }

    results = run_once(experiment)
    checked_res, checked_nf = results["checked"]
    elided_res, elided_nf = results["elided"]

    print()
    print("== Ablation: runtime checks vs verifier-elided (nf_classifier) ==")
    for label, (res, nf) in results.items():
        print(
            f"  {label:7s}: {res.cycles_per_packet:7.1f} cyc/pkt, "
            f"{nf.stats.checks_performed} checks performed, "
            f"{nf.stats.checks_elided} elided"
        )

    # Same program, same seed: verdicts and raw r0 values are
    # bit-identical — elision changes cost, never behavior.
    assert checked_nf.returns == elided_nf.returns
    assert checked_res.actions == elided_res.actions
    # Static proofs bought back the entire per-check cycle bill.
    assert elided_res.total_cycles < checked_res.total_cycles
    assert checked_nf.stats.check_cycles == (
        checked_res.total_cycles - elided_res.total_cycles
    )
    # Every hot-path check in this NF is statically discharged.
    assert elided_nf.stats.checks_performed == 0
    assert elided_nf.stats.checks_elided == checked_nf.stats.checks_performed > 0
