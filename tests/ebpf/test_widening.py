"""Widening-based loop verification: end-to-end contracts.

The two bundled data-dependent-loop programs (``loop_pkt_search``,
``loop_lpm_walk``) are the acceptance witnesses for PR 9: the seed
verifier (``widen="off"``) rejects both by state explosion, the
widening verifier accepts both in O(1) abstract states, the proofs
that survive widening still elide runtime checks, and the programs run
bit-identically through a one-stage :class:`~repro.net.irnf.IrChainNf`
on both backends.  A mask ladder over the same loop shape shows the
seed verifier's cost growing with the trip bound while widening stays
flat, and ``widen="always"`` over the bundled corpus shows what maximal
widening costs in precision.
"""

import time

import pytest

from repro.ebpf.fuse import fuse_chain
from repro.ebpf.insn import (
    Alu, Exit, Imm, Jmp, JmpIf, Load, Mov, Program,
    R0, R1, R2, R3, R4, R5, R6, R7, R8, R9,
)
from repro.ebpf.kfunc_meta import default_registry
from repro.ebpf.progs import bundled_cases, get_case, runnable_registry
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
        assert st.states_explored <= 64 < WIDEN_AFTER_TRIPS
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
        assert compiled.dispatch_stages == (name,)

    @pytest.mark.parametrize("name", DATA_LOOPS)
    def test_nf_interp_fused_parity(self, registry, name):
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


# -- verify-time scaling and the precision ablation --------------------------


def _search_prog(mask: int) -> Program:
    """``loop_pkt_search`` with a parametric bound mask: masks this
    small keep the seed verifier's per-trip enumeration inside its
    state budget, so both verifiers accept and can be compared."""
    return Program([
        Load(R2, R1, 0),
        Load(R3, R1, 8),
        Mov(R4, R2),
        Alu("add", R4, Imm(8)),
        JmpIf("gt", R4, R3, 23),
        Load(R7, R2, 0),
        Mov(R8, R7),
        Alu("and", R8, Imm(mask)),
        Mov(R6, Imm(0)),
        JmpIf("ge", R6, R8, 21),
        Mov(R5, R6),
        Alu("lsh", R5, Imm(3)),
        Mov(R4, R2),
        Alu("add", R4, R5),
        Mov(R9, R4),
        Alu("add", R9, Imm(16)),
        JmpIf("gt", R9, R3, 21),
        Load(R0, R4, 8),
        JmpIf("eq", R0, R7, 23),
        Alu("add", R6, Imm(1)),
        Jmp(9),
        Mov(R0, Imm(2)),
        Exit(),
        Mov(R0, Imm(1)),
        Exit(),
    ], name=f"search_{mask:#x}")


def _proofs(vp) -> set:
    return ({("mem", pc) for pc in vp.annotations.safe_mem}
            | {("div", pc) for pc in vp.annotations.safe_div})


def _verify_or_none(verifier, prog):
    try:
        return verifier.verify(prog)
    except VerifierError:
        return None


#: Every rung's bound exceeds WIDEN_AFTER_TRIPS, so auto mode widens.
LADDER = (0xFF, 0x1FF, 0x3FF)


class TestWideningLadder:
    @pytest.fixture(scope="class")
    def rungs(self, registry):
        """Per mask: (seed result, widened result, seed s, widened s).
        The widened time is the best of three; one seed run is enough,
        since noise can only make the slower verifier slower."""
        out = []
        for mask in LADDER:
            prog = _search_prog(mask)
            t0 = time.perf_counter()
            seed = Verifier(registry, widen="off").verify(prog)
            seed_s = time.perf_counter() - t0
            wide_s = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                wide = Verifier(registry).verify(prog)
                wide_s = min(wide_s, time.perf_counter() - t0)
            out.append((seed, wide, seed_s, wide_s))
        return out

    def test_seed_states_grow_while_widened_stay_flat(self, rungs):
        seed = [s.stats.states_explored for s, _, _, _ in rungs]
        assert all(a < b for a, b in zip(seed, seed[1:])), seed
        wide = [w.stats.states_explored for _, w, _, _ in rungs]
        assert all(w.stats.loops_widened == 1 for _, w, _, _ in rungs)
        assert max(wide) <= 2 * min(wide), wide

    def test_every_seed_proof_survives_widening(self, rungs):
        for seed, wide, _, _ in rungs:
            assert _proofs(seed) <= _proofs(wide), seed.prog.name

    def test_widening_wins_at_the_largest_rung(self, rungs):
        seed, wide, seed_s, wide_s = rungs[-1]
        assert seed.stats.states_explored >= 10 * wide.stats.states_explored
        assert wide_s < seed_s


def test_always_widen_ablation_over_the_corpus(registry):
    """Widening every back-edge target loses precision, never
    soundness: a program the precise verifier rejects stays rejected;
    most accepts, and at least half their proofs, survive."""
    kept = lost = survived = total = 0
    for case in bundled_cases():
        base = _verify_or_none(Verifier(registry), case.prog)
        wide = _verify_or_none(Verifier(registry, widen="always"), case.prog)
        if base is None:
            assert wide is None, case.name
        elif wide is None:
            lost += 1
        else:
            kept += 1
            survived += len(_proofs(base) & _proofs(wide))
            total += len(_proofs(base))
    assert kept >= lost
    assert survived >= 0.5 * total
