"""Whole-pipeline fusion: compile an NF *chain* plus its batch loop
into one specialized Python closure — the one compiled backend.

The code generator (:mod:`repro.ebpf.jit`) removes per-instruction
dispatch from each program; a data plane still pays per-packet Python
glue around it: a fresh VM per stage, verdict mapping between stages,
stats aggregation and cycle charges per program run, and the batch
loop's own call overhead.  :func:`fuse_chain` burns all of that away —
given an ordered list of :class:`~repro.ebpf.verifier.
VerifiedProgram`\\ s (one program is a chain of one) it emits ONE
generated function that contains the batch loop, the packet encoder,
every stage's compiled body, the early-exit verdict logic between
stages, and a single per-batch accounting flush:

- **Early-exit codegen** — a stage's non-``PASS`` verdict counts the
  packet and ``continue``\\ s the batch loop; later stages are never
  branched to.  The last stage has no verdict test at all.
- **Cross-program specialization** — the packet-header layout, the
  chain's verdict threshold, and the cost-model constants are burned
  in as literals; kfunc impls that publish a ``_fuse_inline`` codegen
  spec (the Maglev steering table, the count-min rows, the PRNG
  method) are expanded inline with their configuration bound as
  closure constants.
- **One VM, reused** — the fused chain runs against a single
  persistent :class:`~repro.ebpf.vm.Vm` whose buffers are recycled
  across stages and packets.  This is sound because the verifier
  guarantees initialized-before-read on every stack path (a verified
  program can never observe a stale stack byte), and uninitialized
  slots stay uninitialized across variable-offset stores (weak
  update).  ``pkt``/``ctx`` buffers are refreshed between stages
  *only* when an earlier stage's compiled body may write them (the
  :attr:`FusedChain.stage_writes` tracking).
- **Header-load forwarding** — in a chain where no stage writes pkt,
  a proven constant-offset load of a header field
  (:mod:`repro.ebpf.header`) reads the ``Packet`` attribute directly,
  and the per-packet encode into the VM's packet buffer is emitted
  only while some stage still reads the buffer's bytes (an
  unforwarded or generic load, or a kfunc call handed ``vm``).
- **Hash prologue** — an inline kfunc spec may ask for
  ``fast_hash32(arg, seed)`` of a *packet-pure* argument (built only
  from forwarded header loads, immediates and mov/ALU on such values,
  within the call's block).  Such a hash is a pure function of the
  packet, so the fuser computes it for the whole batch up front with
  the lane kernel (``fast_hash32_lanes``) and the loop reads
  ``_hN[_i]``.  The hashing kfuncs charge no cycles per hash and the
  step tallies stay at the call site, so a packet that exits early
  is charged nothing for the hash it never reached.
- **Per-batch accounting** — step/check tallies accumulate in locals
  across the whole batch and flush once (in a ``finally``, so a
  faulting batch still accounts its executed prefix), with cycle
  charges folded to two multiplications.

Parity contract: identical per-packet r0 sequence, identical
``VmStats`` totals, identical ``Cycles`` charges by category, and
identical kfunc/map state versus running the same chain stage-by-stage
on fresh interpreted VMs (``IrChainNf(backend="interp")``).  Two
documented divergences, both unreachable for verified programs: a
mid-block fault charges the whole block (see :mod:`repro.ebpf.jit`), and
a mid-batch fault books the faulting *stage's* partial steps where the
per-stage path would drop that stage's stats on the floor.

Fused chains are cached per registry under the tuple of stage program
hashes, the elide flag, and the cost constants — see
:func:`fused_for` / :func:`cache_info`.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.algorithms.hashing import fast_hash32_lanes
from .cost_model import CostModel, DEFAULT_COSTS
from .header import HEADER_FIELDS, HEADER_STRUCT, WRAPPED_FIELD
from .jit import JitError, _Compiler, _Emitter, program_hash
from .kfunc_meta import KfuncRegistry
from .vm import MASK64, Pointer

_HEX_M = "0x%X" % MASK64

#: The XDP verdict that hands the packet to the next stage.  Any other
#: r0 is final (``enum xdp_action``: 2 == XDP_PASS).
PASS_VERDICT = 2

#: Packet offset -> the loop-local expression for the header field
#: stored there (``_pp`` is the packet, ``_n`` its size).  Drives both
#: the in-loop encoder and header-load forwarding.
_HEADER_LOADS: Dict[int, str] = {
    off: ("_n" if name == "size" else f"_pp.{name}")
    + (f" & {_HEX_M}" if name == WRAPPED_FIELD else "")
    for name, off in HEADER_FIELDS
}
_ENCODE = "_enc(_pkt, 0, %s)" % ", ".join(
    _HEADER_LOADS[off] for _, off in HEADER_FIELDS
)


class FuseError(JitError):
    """Chain fusion failed (empty chain or malformed stage)."""


@dataclass
class FusedChain:
    """One NF chain lowered to a single batch-processing closure.

    ``fn(nf, batch)`` runs every packet in ``batch`` through the whole
    chain against ``nf``'s persistent VM (``nf._vm``), appends each
    final r0 to ``nf.returns``, accumulates ``nf.stats``, charges
    ``nf.rt``, and returns a raw-verdict histogram ``{r0: count}`` —
    the caller maps r0 to XDP action strings.
    """

    fn: Callable[[Any, Sequence[Any]], Dict[int, int]]
    source: str
    stage_hashes: Tuple[str, ...]
    stage_names: Tuple[str, ...]
    elide_checks: bool
    n_nodes: int
    #: kfunc call sites expanded inline (vs direct-bound calls).
    inlined_kfuncs: int = 0
    #: proven header loads that read the ``Packet`` field directly.
    forwarded_loads: int = 0
    #: whether the packet loop still encodes each frame into the VM's
    #: packet buffer (some stage writes or reads its bytes).
    encodes_packet: bool = True
    #: kfunc hashes read from the per-batch hash prologue.
    hoisted_calls: int = 0
    #: per-stage regions whose buffers the stage may write.
    stage_writes: Tuple[frozenset, ...] = ()
    unrolled: Dict[str, Dict[int, int]] = field(default_factory=dict)


# -- fused-chain cache -------------------------------------------------------

#: registry -> {(stage hashes, elide, cost constants): FusedChain}.
_FUSE_CACHES: "weakref.WeakKeyDictionary[KfuncRegistry, Dict[Tuple, FusedChain]]" = (
    weakref.WeakKeyDictionary()
)

_CACHE_HITS = 0
_CACHE_MISSES = 0


def _cache_key(
    verified: Sequence[Any], elide_checks: bool, costs: CostModel
) -> Tuple:
    return (
        tuple(program_hash(vp.prog) for vp in verified),
        bool(elide_checks),
        (costs.insn_exec, costs.bounds_check, costs.div_check),
    )


def fused_for(
    registry: KfuncRegistry,
    verified: Sequence[Any],
    elide_checks: bool = True,
    costs: CostModel = DEFAULT_COSTS,
) -> FusedChain:
    """Cached fuse: same (registry, stage hashes, elide, costs) returns
    the same :class:`FusedChain` object."""
    global _CACHE_HITS, _CACHE_MISSES
    bucket = _FUSE_CACHES.get(registry)
    if bucket is None:
        bucket = {}
        _FUSE_CACHES[registry] = bucket
    key = _cache_key(verified, elide_checks, costs)
    hit = bucket.get(key)
    if hit is None:
        _CACHE_MISSES += 1
        hit = fuse_chain(
            registry, verified, elide_checks=elide_checks, costs=costs
        )
        bucket[key] = hit
    else:
        _CACHE_HITS += 1
    return hit


def cache_info() -> Dict[str, int]:
    """Aggregate fused-chain cache statistics."""
    n_entries = sum(len(b) for b in _FUSE_CACHES.values())
    return {
        "registries": len(_FUSE_CACHES),
        "entries": n_entries,
        "hits": _CACHE_HITS,
        "misses": _CACHE_MISSES,
    }


# -- specialization helpers (bound into the generated closure) ---------------


def _zero_bytes_cache() -> Callable[[int], bytes]:
    """Per-size zeroed templates for the packet-buffer reset: replay
    traces reuse a handful of frame sizes, so the common case is one
    dict hit instead of a fresh allocation per packet."""
    cache: Dict[int, bytes] = {}

    def zeros(n: int) -> bytes:
        b = cache.get(n)
        if b is None:
            b = bytes(n)
            cache[n] = b
        return b

    return zeros


def _pktend_cache() -> Callable[[int], Pointer]:
    """Per-size ``data_end`` pointers (frozen, so sharing is safe)."""
    cache: Dict[int, Pointer] = {}

    def pktend(n: int) -> Pointer:
        p = cache.get(n)
        if p is None:
            p = Pointer("pkt", n)
            cache[n] = p
        return p

    return pktend


class _HashPrologue:
    """The per-batch hash prologue, as :attr:`_Compiler.hoist`.

    Each distinct packet-pure key expression becomes one list over the
    batch (``_hkN``), hashed once per seed in lanes (``_hN``).
    """

    def __init__(self) -> None:
        self.keys: Dict[str, str] = {}
        self.hashes: Dict[Tuple[str, int], str] = {}
        self.lines: List[str] = []

    def __call__(self, key: str, seed: int) -> str:
        name = self.hashes.get((key, seed))
        if name is None:
            keys = self.keys.get(key)
            if keys is None:
                keys = f"_hk{len(self.keys)}"
                self.keys[key] = keys
                # The loop's ``_n`` is the packet's size.
                expr = re.sub(r"\b_n\b", "_pp.size", key)
                self.lines.append(f"{keys} = [{expr} for _pp in batch]")
            name = f"_h{len(self.hashes)}"
            self.hashes[(key, seed)] = name
            self.lines.append(f"{name} = _fhl({keys}, {seed})")
        return name


# -- the fuser ---------------------------------------------------------------


def fuse_chain(
    registry: KfuncRegistry,
    verified: Sequence[Any],
    elide_checks: bool = True,
    costs: CostModel = DEFAULT_COSTS,
    inline_kfuncs: bool = True,
) -> FusedChain:
    """Fuse an ordered chain of verified programs into one closure.

    Every element of ``verified`` must be a ``VerifiedProgram`` (or
    carry ``.prog`` + ``.annotations``) — fusion *requires* proofs:
    unverified programs have no elision table, no loop bounds, and no
    soundness argument for skipping the interpreter's checks.  Stage order is chain order; a stage's
    non-``PASS`` verdict is the packet's final verdict.
    """
    if not verified:
        raise FuseError("cannot fuse an empty chain")
    stages: List[Tuple[Any, Any]] = []
    for vp in verified:
        prog = getattr(vp, "prog", None)
        ann = getattr(vp, "annotations", None)
        if prog is None or ann is None or not hasattr(ann, "safe_mem"):
            raise FuseError(
                "fuse_chain requires VerifiedProgram stages "
                "(run the verifier first)"
            )
        stages.append((prog, ann))

    compilers: List[_Compiler] = []
    for i, (prog, ann) in enumerate(stages):
        comp = _Compiler(
            prog,
            ann,
            registry,
            elide_checks,
            sym_prefix=f"s{i}_",
            inline_kfuncs=inline_kfuncs,
        )
        comp.prepare()
        compilers.append(comp)

    names = tuple(prog.name for prog, _ in stages)
    fname = "_fused_" + "__".join(re.sub(r"\W", "_", n) for n in names)

    em = _Emitter()
    em.emit(0, f"def {fname}(nf, batch):")
    for line in (
        "vm = nf._vm",
        "_stats = nf.stats",
        "_rapp = nf.returns.append",
        "_charge = nf.rt.charge",
        "_stack = vm.stack",
        "_ctx = vm.ctx",
        "_pkt = vm.packet",
        "_slots = vm._ptr_slots",
        "_rd = vm.read_u64",
        "_wr = vm.write_u64",
        "_bf = vm._buffer_for",
        "_bu = vm._buffer_unchecked",
        # Objects a previous batch's programs allocated (and provably
        # released) need not accumulate on the persistent VM.
        "del vm.live_objects[:]",
        "_counts = {}",
        "_steps = 0",
        "_mem = 0",
        "_div = 0",
        "_eli = 0",
    ):
        em.emit(1, line)

    # Per-stage bodies are rendered first (into scratch emitters) so
    # the packet-loop prologue can specialize on what the stages
    # actually do: whether any stage writes pkt/ctx, whether anyone
    # reads data_end or the packet bytes, whether a back-edge survived
    # unrolling.
    def render(
        header_loads: Dict[int, str]
    ) -> Tuple[List[_Emitter], _HashPrologue]:
        bodies = []
        prologue = _HashPrologue()
        for comp in compilers:
            body = _Emitter()
            comp.emit_dispatch(body, 0, header_loads, prologue)
            bodies.append(body)
        return bodies, prologue

    # Header-load forwarding: a proven load of a header field reads the
    # Packet attribute the encoder would have stored, so the encode is
    # needed only while some stage still reads the buffer's bytes.  A
    # stage that writes pkt makes the bytes diverge from the Packet,
    # so such a chain forwards nothing.
    stage_bodies, prologue = render(_HEADER_LOADS)
    writes_pkt = any("pkt" in c.writes for c in compilers)
    if writes_pkt:
        # Nothing is packet-pure without forwarded loads: no prologue.
        stage_bodies, prologue = render({})
    encodes_packet = writes_pkt or any(c.reads_packet for c in compilers)

    all_text = "\n".join("\n".join(b.lines) for b in stage_bodies)
    uses_pktend = "_PKTEND" in all_text
    any_writes_ctx = any("ctx" in c.writes for c in compilers)

    g: Dict[str, Any] = {
        "_zb": _zero_bytes_cache(),
        "_enc": HEADER_STRUCT.pack_into,
        "_CTXP": Pointer("ctx", 0),
        "_STKP": Pointer("stack", 0),
        "_PKT0": Pointer("pkt", 0),
    }
    if uses_pktend:
        g["_pe"] = _pktend_cache()

    L = 2  # packet-loop body level (def=0, try=1, for=2... body=3)
    em.emit(1, "try:")
    if prologue.lines:
        g["_fhl"] = fast_hash32_lanes
        for line in prologue.lines:
            em.emit(L, line)
        em.emit(L, "for _i, _pp in enumerate(batch):")
    else:
        em.emit(L, "for _pp in batch:")
    B = L + 1
    em.emit(B, "_n = _pp.size")
    if encodes_packet:
        # Packet encode, specialized: zeroed template + pack_into, no
        # intermediate bytearray/bytes round-trip (encode_packet
        # allocates twice per packet).
        em.emit(B, "_pkt[:] = _zb(_n)")
        em.emit(B, _ENCODE)
    if uses_pktend:
        em.emit(B, "_PKTEND = _pe(_n)")
    if any_writes_ctx:
        # A fresh per-stage VM would see a zero ctx; re-zero once per
        # packet only because some stage may dirty it.
        em.emit(B, "_ctx[:] = _ZCTX")

    wrote_pkt = False
    wrote_ctx = False
    n_last = len(compilers) - 1
    for i, (comp, body) in enumerate(zip(compilers, stage_bodies)):
        em.emit(B, f"# -- stage {i}: {names[i]}")
        if i > 0:
            # Buffer refresh between stages: a fresh interpreted VM
            # re-encodes the packet and zeroes ctx for every stage, but
            # that is only *observable* if an earlier stage wrote the
            # buffer — the writes tracking makes the refresh free for
            # read-only chains (all the bundled NFs).
            if wrote_pkt:
                em.emit(B, "_pkt[:] = _zb(_n)")
                em.emit(B, _ENCODE)
            if wrote_ctx:
                em.emit(B, "_ctx[:] = _ZCTX")
        em.emit(B, "r0 = r2 = r3 = r4 = r5 = r6 = r7 = r8 = r9 = 0")
        em.emit(B, "r1 = _CTXP")
        em.emit(B, "r10 = _STKP")
        if comp.used_step_guard:
            em.emit(B, "_s0 = _steps")
        for line in body.lines:
            em.lines.append("    " * B + line)
        if i < n_last:
            # Early exit: any non-PASS verdict is final — later stages
            # are never branched to for this packet.
            em.emit(B, f"if _rr != {PASS_VERDICT}:")
            em.emit(B + 1, "_rapp(_rr)")
            em.emit(B + 1, "_counts[_rr] = _counts.get(_rr, 0) + 1")
            em.emit(B + 1, "continue")
        wrote_pkt = wrote_pkt or "pkt" in comp.writes
        wrote_ctx = wrote_ctx or "ctx" in comp.writes
    em.emit(B, "_rapp(_rr)")
    em.emit(B, "_counts[_rr] = _counts.get(_rr, 0) + 1")

    # One accounting flush per batch, cost constants folded in.  Runs
    # in a finally so a (verified-unreachable) mid-batch fault still
    # books the executed prefix's steps and charges.
    em.emit(1, "finally:")
    for line in (
        "_stats.steps += _steps",
        "_stats.checks_performed += _mem + _div",
        "_stats.checks_elided += _eli",
        f"_ic = _steps * {costs.insn_exec}",
        f"_cc = _mem * {costs.bounds_check} + _div * {costs.div_check}",
        "_stats.insn_cycles += _ic",
        "_stats.check_cycles += _cc",
        "if _ic:",
        "    _charge(_ic, _OTHER)",
        "if _cc:",
        "    _charge(_cc, _FRAMEWORK)",
    ):
        em.emit(2, line)
    em.emit(1, "return _counts")

    source = "\n".join(em.lines) + "\n"
    try:
        code = compile(source, f"<fused:{'|'.join(names)}>", "exec")
    except SyntaxError as exc:  # pragma: no cover - fuser bug guard
        raise FuseError(
            f"generated source failed to compile: {exc}\n{source}"
        ) from exc

    ns: Dict[str, Any] = {}
    for comp in compilers:
        ns.update(comp.globals)
    ns.update(g)
    if any_writes_ctx:
        # 256 matches Vm's default ctx size; IrChainNf builds its
        # persistent VM with the default.
        ns["_ZCTX"] = bytes(256)
    exec(code, ns)
    return FusedChain(
        fn=ns[fname],
        source=source,
        stage_hashes=tuple(program_hash(p) for p, _ in stages),
        stage_names=names,
        elide_checks=bool(elide_checks),
        n_nodes=sum(len(c._reachable) for c in compilers),
        inlined_kfuncs=sum(c.inlined_calls for c in compilers),
        forwarded_loads=sum(c.forwarded_loads for c in compilers),
        encodes_packet=encodes_packet,
        hoisted_calls=sum(c.hoisted_calls for c in compilers),
        stage_writes=tuple(frozenset(c.writes) for c in compilers),
        unrolled={
            names[i]: {s: N + 1 for (t, s, N) in c._loops}
            for i, c in enumerate(compilers)
        },
    )
