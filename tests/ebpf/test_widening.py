"""Widening-based loop verification: end-to-end contracts.

The two bundled data-dependent-loop programs (``loop_pkt_search``,
``loop_lpm_walk``) are the acceptance witnesses for PR 9: the seed
verifier (``widen="off"``) rejects both by state explosion, the
widening verifier accepts both in O(1) abstract states, the proofs
that survive widening still elide runtime checks, and the programs run
bit-identically through a one-stage :class:`~repro.net.irnf.IrChainNf`
on both backends.
"""

import pytest

from repro.ebpf.fuse import fuse_chain
from repro.ebpf.kfunc_meta import default_registry
from repro.ebpf.progs import get_case, runnable_registry
from repro.ebpf.verifier import (
    MAX_FIXPOINT_ITERS,
    Verifier,
    VerifierError,
    WIDEN_AFTER_TRIPS,
)
from repro.net.packet import Packet
from repro.net.irnf import IrChainNf
from repro.ebpf.runtime import BpfRuntime

DATA_LOOPS = ("loop_pkt_search", "loop_lpm_walk")


@pytest.fixture(scope="module")
def registry():
    return default_registry()


def _pkt(**kw) -> Packet:
    defaults = dict(src_ip=0x0A000001, dst_ip=0x0A000002,
                    src_port=1234, dst_port=80)
    defaults.update(kw)
    return Packet(**defaults)


class TestBundledDataLoops:
    @pytest.mark.parametrize("name", DATA_LOOPS)
    def test_seed_rejects(self, registry, name):
        """The exact programs now shipped were unverifiable before
        widening: per-trip enumeration blows the state budget."""
        with pytest.raises(VerifierError, match="state limit"):
            Verifier(registry, widen="off").verify(get_case(name).prog)

    @pytest.mark.parametrize("name", DATA_LOOPS)
    def test_widening_accepts_in_constant_states(self, registry, name):
        vp = Verifier(registry).verify(get_case(name).prog)
        st = vp.stats
        assert st.loops_widened == 1
        assert 0 < st.fixpoint_iters < MAX_FIXPOINT_ITERS
        # O(1) abstract states: far below one state per trip (the
        # data-dependent bound is 16383) and below the widening trip
        # threshold itself.
        assert st.states_explored < WIDEN_AFTER_TRIPS
        assert len(vp.loop_invariants) == 1
        (inv,) = vp.loop_invariants.values()
        assert inv.trip_bound == 16385  # 0x3fff bound, +2 slack

    def test_proofs_survive_widening(self, registry):
        """The elisions the widened invariant can still justify are
        kept — the Kops lesson: an analysis extension only pays off if
        the downstream proofs survive it."""
        vp = Verifier(registry).verify(get_case("loop_pkt_search").prog)
        # In-loop guarded packet load at pc 17 stays elided.
        assert 17 in vp.annotations.safe_mem
        vp = Verifier(registry).verify(get_case("loop_lpm_walk").prog)
        # In-loop division by the loop-invariant nonzero radix.
        assert 13 in vp.annotations.safe_div

    @pytest.mark.parametrize("name", DATA_LOOPS)
    def test_widened_loops_are_not_unrolled(self, registry, name):
        """Widened back-edges carry no constant trip count, so they
        must stay out of ``loop_bounds`` (what the compiler unrolls) and
        flow through the guarded dispatch loop instead."""
        vp = Verifier(registry).verify(get_case(name).prog)
        assert not vp.annotations.loop_bounds
        assert vp.widened_steps > 0
        assert vp.max_steps > vp.widened_steps  # base budget still there
        compiled = fuse_chain(runnable_registry(0), [vp])
        assert compiled.unrolled == {name: {}}
        assert "continue" in compiled.source

    @pytest.mark.parametrize("name", DATA_LOOPS)
    def test_irnf_interp_jit_parity(self, registry, name):
        """Bit-identical verdicts and accounting through the NF layer,
        across packets that drive different trip counts."""
        vp = Verifier(registry).verify(get_case(name).prog)
        pkts = [
            _pkt(),                                  # tiny loop bounds
            _pkt(src_ip=0xDEAD0007, dst_ip=0x00000FFF),
            _pkt(src_ip=0x00000000, dst_ip=0x00000000),  # zero-trip walk
            _pkt(src_ip=0x12345678, dst_ip=0x0BAD0FAD),
            _pkt(src_ip=0xFFFFFFFF, dst_ip=0xFFFFFFFF, size=128),
        ]
        results = {}
        for backend in ("interp", "fused"):
            rt = BpfRuntime()
            nf = IrChainNf(rt, [vp], registry=runnable_registry(0),
                           backend=backend)
            actions = nf.process_batch(pkts)
            results[backend] = (
                tuple(nf.returns), dict(actions), nf.stats.steps,
                nf.stats.checks_performed, nf.stats.checks_elided,
                nf.stats.insn_cycles, nf.stats.check_cycles,
            )
            assert set(nf.returns) <= {1, 2}, nf.returns
        assert results["interp"] == results["fused"]


class TestWidenModes:
    def test_off_matches_seed_on_counted_loop(self, registry):
        """``widen="off"`` is the seed verifier: constant-trip loops
        still verify by per-trip enumeration, no fixpoint machinery."""
        vp = Verifier(registry, widen="off").verify(
            get_case("loop_counted").prog)
        assert vp.stats.loops_bounded == 1
        assert vp.stats.loops_widened == 0
        assert vp.stats.fixpoint_iters == 0
        assert not vp.loop_invariants

    def test_auto_leaves_small_loops_alone(self, registry):
        """Loops under the trip threshold keep the precise per-trip
        analysis (and with it, JIT unrolling)."""
        vp = Verifier(registry).verify(get_case("loop_counted").prog)
        assert vp.stats.loops_widened == 0
        assert vp.annotations.loop_bounds  # unroll info preserved

    def test_always_mode_widens_counted_loop(self, registry):
        """The ablation mode widens every back-edge target: the same
        16-trip loop verifies in fewer states through one invariant."""
        auto = Verifier(registry).verify(get_case("loop_counted").prog)
        always = Verifier(registry, widen="always").verify(
            get_case("loop_counted").prog)
        assert always.stats.loops_widened == 1
        assert always.stats.fixpoint_iters > 0
        assert always.stats.states_explored < auto.stats.states_explored

    def test_invalid_mode_rejected(self, registry):
        with pytest.raises(ValueError, match="widen"):
            Verifier(registry, widen="sometimes")


class TestDiagnostics:
    def test_no_progress_loop_explains_itself(self, registry):
        """A loop whose body makes no provable progress is rejected
        with the back-edge named and the header-state diff printed."""
        with pytest.raises(VerifierError) as ei:
            Verifier(registry).verify(get_case("loop_unbounded").prog)
        err = ei.value
        assert "back-edge" in str(err)
        assert err.loop_header is not None
        text = err.explain()
        assert "loop header: insn" in text
        assert "->" in text  # joined/widened state diff entries

    def test_fixpoint_iteration_cap(self, registry):
        """The hard cap exists and is not hit by the bundled corpus."""
        assert MAX_FIXPOINT_ITERS >= 8
        for name in DATA_LOOPS:
            vp = Verifier(registry).verify(get_case(name).prog)
            assert vp.stats.fixpoint_iters <= 8
