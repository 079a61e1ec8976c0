"""A verified IR program attached to the XDP pipeline as an NF: a
one-stage :class:`~repro.net.irnf.IrChainNf`, on the interpreter and on
the compiled (fused) backend."""

import struct

import pytest

from repro.ebpf.cost_model import Category, ExecMode
from repro.ebpf.insn import Exit, Imm, Mov, Program, R0
from repro.ebpf.progs import get_case
from repro.ebpf.runtime import BpfRuntime
from repro.ebpf.verifier import VerifierError
from repro.net.flowgen import FlowGenerator
from repro.net.irnf import IrChainNf, XDP_RETURN_CODES, encode_packet
from repro.net.packet import Packet, XdpAction
from repro.net.xdp import XdpPipeline

MASK64 = (1 << 64) - 1


def _const_prog(r0: int) -> Program:
    return Program([Mov(R0, Imm(r0)), Exit()], name=f"ret_{r0}")


def _nf(rt, prog, **kw) -> IrChainNf:
    return IrChainNf(rt, [prog], **kw)


def _pkt(**kw) -> Packet:
    defaults = dict(src_ip=0x0A000001, dst_ip=0x0A000002,
                    src_port=1234, dst_port=80)
    defaults.update(kw)
    return Packet(**defaults)


class TestEncodePacket:
    def test_layout(self):
        pkt = _pkt(size=64, timestamp_ns=99)
        buf = encode_packet(pkt)
        assert len(buf) == 64
        fields = struct.unpack_from("<7Q", buf, 0)
        assert fields == (0x0A000001, 0x0A000002, 1234, 80,
                          pkt.proto, 64, 99)

    def test_buffer_tracks_frame_size(self):
        assert len(encode_packet(_pkt(size=128))) == 128


class TestIrNf:
    def test_attach_time_rejection(self):
        rt = BpfRuntime()
        with pytest.raises(VerifierError):
            _nf(rt, get_case("pkt_missing_guard").prog)

    @pytest.mark.parametrize("code,action", sorted(XDP_RETURN_CODES.items()))
    def test_return_code_mapping(self, code, action):
        rt = BpfRuntime()
        nf = _nf(rt, _const_prog(code))
        assert nf.process(_pkt()) == action

    def test_unknown_return_code_aborts(self):
        rt = BpfRuntime()
        nf = _nf(rt, _const_prog(57))
        assert nf.process(_pkt()) == XdpAction.ABORTED

    def test_charges_runtime_cycles(self):
        rt = BpfRuntime(mode=ExecMode.ENETSTL)
        nf = _nf(rt, get_case("nf_classifier").prog, elide_checks=False)
        before = rt.cycles.total
        nf.process(_pkt())
        assert rt.cycles.total > before
        assert rt.cycles.breakdown()[Category.FRAMEWORK] > 0  # checks
        assert nf.stats.checks_performed > 0

    def test_elision_drops_framework_cycles(self):
        rt = BpfRuntime(mode=ExecMode.ENETSTL)
        nf = _nf(rt, get_case("nf_classifier").prog, elide_checks=True)
        nf.process(_pkt())
        assert rt.cycles.breakdown().get(Category.FRAMEWORK, 0) == 0
        assert nf.stats.checks_performed == 0
        assert nf.stats.checks_elided > 0

    def test_classifier_reads_real_header_bytes(self):
        """The verdict is a pure function of the encoded 5-tuple."""
        rt = BpfRuntime()
        nf = _nf(rt, get_case("nf_classifier").prog)
        pkt = _pkt()
        h = (pkt.src_ip ^ pkt.dst_ip) & MASK64
        h = (h + pkt.src_port) & MASK64
        h ^= pkt.dst_port
        expected = 1 + ((h % ((h & 7) + 1)) & 1)
        assert nf.process(pkt) == XDP_RETURN_CODES[expected]

    def test_runs_under_pipeline(self):
        rt = BpfRuntime(mode=ExecMode.ENETSTL, seed=3)
        nf = _nf(rt, get_case("nf_classifier").prog, seed=3)
        fg = FlowGenerator(n_flows=64, seed=3)
        result = XdpPipeline(nf).run(fg.trace(200))
        assert result.n_packets == 200
        assert not result.errors
        assert set(result.actions) <= {XdpAction.PASS, XdpAction.DROP}
        assert len(nf.returns) == 200


class TestIrNfJitBackend:
    """The compiled backend: one-stage fusion (:mod:`repro.ebpf.fuse`)."""

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            _nf(BpfRuntime(), _const_prog(2), backend="native")

    @pytest.mark.parametrize(
        "name", ["nf_classifier", "nf_cm_sketch", "nf_maglev_pick"])
    def test_backend_parity_per_packet(self, name):
        """Same trace, same seed: the compiled backend's verdicts, raw
        returns, aggregate stats, and runtime cycle totals match the
        interpreter exactly."""
        fg = FlowGenerator(n_flows=32, seed=11)
        trace = list(fg.trace(300))
        results = {}
        for backend in ("interp", "fused"):
            rt = BpfRuntime(mode=ExecMode.ENETSTL, seed=5)
            nf = _nf(rt, get_case(name).prog, seed=5, backend=backend)
            actions = [nf.process(p) for p in trace]
            results[backend] = (
                actions, nf.returns, nf.stats.steps,
                nf.stats.checks_performed, nf.stats.checks_elided,
                nf.stats.insn_cycles, rt.cycles.total,
            )
        assert results["interp"] == results["fused"]

    def test_process_batch_matches_per_packet(self):
        fg = FlowGenerator(n_flows=16, seed=4)
        trace = list(fg.trace(120))
        rt_a = BpfRuntime(seed=2)
        nf_a = _nf(rt_a, get_case("nf_maglev_pick").prog,
                   seed=2, backend="fused")
        counts = nf_a.process_batch(trace)
        rt_b = BpfRuntime(seed=2)
        nf_b = _nf(rt_b, get_case("nf_maglev_pick").prog,
                   seed=2, backend="fused")
        per_packet = [nf_b.process(p) for p in trace]
        assert sum(counts.values()) == len(trace)
        for action in set(per_packet):
            assert counts[action] == per_packet.count(action)
        assert nf_a.returns == nf_b.returns

    def test_jit_runs_under_batched_pipeline(self):
        rt = BpfRuntime(mode=ExecMode.ENETSTL, seed=9)
        nf = _nf(rt, get_case("nf_cm_sketch").prog, seed=9, backend="fused")
        fg = FlowGenerator(n_flows=64, seed=9)
        result = XdpPipeline(nf).run_batch(fg.trace(256), batch_size=32)
        assert result.n_packets == 256
        assert not result.errors
        assert set(result.actions) <= {XdpAction.PASS, XdpAction.DROP}
