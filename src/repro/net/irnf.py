"""Run verified IR programs as XDP network functions.

:class:`IrChainNf` bridges the two halves of the eBPF substrate: the
static side (:mod:`repro.ebpf.verifier`) and the data plane
(:mod:`repro.net.xdp`).  Its programs — one, or an ordered chain — are
verified **once** at attach time (rejected programs never reach the
pipeline, exactly like ``BPF_PROG_LOAD``), and each
:class:`~repro.ebpf.verifier.VerifiedProgram` proof table rides along
to every run, letting the backend skip the bounds and divisor checks
the verifier already discharged (§4.1's lazy-checking payoff).

On the ``interp`` backend packets cross the boundary through
:func:`encode_packet`, which lays the packet's header fields out as
little-endian u64s (the layout of :mod:`repro.ebpf.header`: 5-tuple,
frame size, timestamp) so guarded ``*(u64 *)(data + off)`` loads read
real header bytes.  The ``fused`` backend encodes the same bytes only
when some stage needs them; otherwise its proven header loads read the
:class:`~repro.net.packet.Packet` fields directly (see
:mod:`repro.ebpf.fuse`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from ..ebpf.cost_model import Category
from ..ebpf.header import HEADER_BYTES, pack_header
from ..ebpf.insn import Program
from ..ebpf.kfunc_meta import KfuncRegistry
from ..ebpf.progs import runnable_registry
from ..ebpf.runtime import BpfRuntime
from ..ebpf.verifier import VerifiedProgram, Verifier
from ..ebpf.vm import Vm, VmStats
from .packet import Packet, XdpAction

#: The XDP return-code convention (``enum xdp_action``): r0 -> verdict.
XDP_RETURN_CODES = {
    0: XdpAction.ABORTED,
    1: XdpAction.DROP,
    2: XdpAction.PASS,
    3: XdpAction.TX,
    4: XdpAction.REDIRECT,
}


def encode_packet(pkt: Packet) -> bytes:
    """Serialize a packet's parsed view into the VM's packet buffer.

    The buffer is ``pkt.size`` bytes (64 minimum); the first
    ``HEADER_BYTES`` hold the header fields, the rest is zero payload —
    so a program's ``data_end`` guard sees realistic frame lengths.
    """
    buf = bytearray(max(pkt.size, HEADER_BYTES + 8))
    pack_header(buf, pkt)
    return bytes(buf)


#: The raw verdict that forwards a packet to the next chain stage.
PASS_R0 = 2


class IrChainNf:
    """An ordered chain of verified IR programs attached as one NF.

    Satisfies the :class:`~repro.net.xdp.NetworkFunction` protocol; a
    one-program chain is the plain single-program NF.  Chain semantics
    mirror a multi-program XDP pipeline: each stage sees the freshly
    encoded packet; a stage returning ``XDP_PASS`` (r0 == 2) hands the
    packet to the next stage, any other verdict is final and later
    stages never run.  The chain's ``returns`` records each packet's
    *final* r0 — the bit-identical-output witness the ablations compare
    — and ``stats`` aggregates VM statistics across all executed
    stages.

    Programs not already verified are verified here, at attach time:
    a rejected program raises
    :class:`~repro.ebpf.verifier.VerifierError` before any traffic.
    Programs see no cross-packet state except what kfuncs carry in the
    registry closure.  Cycles are charged to ``rt.cycles`` —
    executed instructions to ``Category.OTHER``, *performed* safety
    checks to ``Category.FRAMEWORK``, so the elision win shows up
    exactly where the cost model books framework overhead.
    ``elide_checks=False`` is the ablation knob: identical execution,
    every check still performed and charged.

    Two backends, bit-identical by contract:

    - ``"interp"`` — the reference: a fresh interpreted VM per packet
      per stage.
    - ``"fused"`` — the whole chain *and* the batch loop compiled into
      one closure (:mod:`repro.ebpf.fuse`) running against a single
      persistent VM; verdict mapping, stats aggregation, and cycle
      charges are folded to per-batch constants.
    """

    def __init__(
        self,
        rt: BpfRuntime,
        progs: Sequence[Union[Program, VerifiedProgram]],
        registry: Optional[KfuncRegistry] = None,
        elide_checks: bool = True,
        seed: int = 0,
        backend: str = "interp",
    ) -> None:
        if not progs:
            raise ValueError("chain needs at least one program")
        self.rt = rt
        self.registry = registry if registry is not None else runnable_registry(seed)
        verifier: Optional[Verifier] = None
        self.verified: List[VerifiedProgram] = []
        for p in progs:
            if isinstance(p, VerifiedProgram):
                self.verified.append(p)
            else:
                if verifier is None:
                    verifier = Verifier(self.registry)
                self.verified.append(verifier.verify(p))
        self.progs = [vp.prog for vp in self.verified]
        self.elide_checks = elide_checks
        if backend not in ("interp", "fused"):
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        self.stats = VmStats()
        self.returns: List[int] = []
        if backend == "fused":
            from ..ebpf.fuse import fused_for

            # Attach-time fusion (cached by stage hashes): the first
            # batch pays no compile latency.
            self._fused = fused_for(
                self.registry,
                self.verified,
                elide_checks=elide_checks,
                costs=rt.costs,
            )
            #: The persistent VM the fused closure recycles across
            #: stages and packets (sound: the verifier guarantees
            #: initialized-before-read on the stack; pkt/ctx are
            #: refreshed by generated code exactly where needed).
            self._vm = Vm(self.registry, costs=rt.costs)

    def _run_stages(self, packet: Packet) -> int:
        """Interp path: run stages on fresh VMs until a non-PASS
        verdict, aggregating stats and charging cycles per stage."""
        enc = encode_packet(packet)
        st = self.stats
        rt = self.rt
        r0 = PASS_R0
        for vp in self.verified:
            vm = Vm(
                self.registry,
                packet=enc,
                proofs=vp,
                costs=rt.costs,
                elide_checks=self.elide_checks,
            )
            r0 = vm.run(vp.prog)
            s = vm.stats
            st.steps += s.steps
            st.checks_performed += s.checks_performed
            st.checks_elided += s.checks_elided
            st.insn_cycles += s.insn_cycles
            st.check_cycles += s.check_cycles
            rt.charge(s.insn_cycles, Category.OTHER)
            if s.check_cycles:
                rt.charge(s.check_cycles, Category.FRAMEWORK)
            if r0 != PASS_R0:
                break
        return r0

    def process(self, packet: Packet) -> str:
        if self.backend == "fused":
            self._fused.fn(self, (packet,))
            r0 = self.returns[-1]
        else:
            r0 = self._run_stages(packet)
            self.returns.append(r0)
        return XDP_RETURN_CODES.get(r0, XdpAction.ABORTED)

    def process_batch(self, batch: Sequence[Packet]) -> Dict[str, int]:
        """Batched chain replay; with ``backend="fused"`` the whole
        batch runs inside the fused closure — one Python call per
        batch, raw verdicts mapped to actions once per distinct r0."""
        if self.backend == "fused":
            raw = self._fused.fn(self, batch)
        else:
            run = self._run_stages
            append = self.returns.append
            raw = {}
            for pkt in batch:
                r0 = run(pkt)
                append(r0)
                raw[r0] = raw.get(r0, 0) + 1
        counts: Dict[str, int] = {}
        for r0, n in raw.items():
            action = XDP_RETURN_CODES.get(r0, XdpAction.ABORTED)
            counts[action] = counts.get(action, 0) + n
        return counts
