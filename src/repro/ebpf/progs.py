"""Bundled IR example programs with expected verifier verdicts.

One canonical program per verifier capability — guarded packet access,
bounded loops, range-proven divisors, kptr lifecycle — each paired
with the *rejected variant* that drops the safety ingredient.  The
``python -m repro.ebpf.verify`` CLI and the CI ``verify-smoke`` job run
the whole set and fail on any verdict flip, making the verifier's
accept/reject frontier an executable regression surface.

Programs verify against :func:`repro.ebpf.kfunc_meta.default_registry`
metadata; the cases that also *run* (the differential and elision
tests) bind implementations separately.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .insn import (
    Alu,
    Call,
    Exit,
    Imm,
    Jmp,
    JmpIf,
    Load,
    Mov,
    Program,
    Store,
    R0,
    R1,
    R2,
    R3,
    R4,
    R5,
    R6,
    R7,
    R8,
    R9,
    R10,
)
from .kfunc_meta import KfuncRegistry, default_registry
from .verifier import KPTR_REGION_SIZE
from .vm import KernelObject, Pointer

MASK64 = (1 << 64) - 1

#: Count-min sketch geometry for the ``enetstl_cm_update`` kfunc impl.
CM_ROWS = 4
CM_WIDTH = 64
#: Fixed per-row salts (splitmix64-style odd constants) so the sketch
#: is deterministic without consuming the registry's PRNG stream.
_CM_SALTS = (
    0x9E3779B97F4A7C15,
    0xC2B2AE3D27D4EB4F,
    0x165667B19E3779F9,
    0x27D4EB2F165667C5,
)

#: Maglev lookup-table geometry for ``enetstl_maglev_pick``.
MAGLEV_BACKENDS = 8
MAGLEV_TABLE_SIZE = 251  # prime, as the Maglev paper requires


def _maglev_table(seed: int) -> List[int]:
    """Populate a Maglev lookup table (permutation fill, one entry per
    slot) from a dedicated PRNG so the registry's shared stream — which
    ``bpf_get_prandom_u32`` draws from — is untouched."""
    rng = random.Random(f"maglev-{seed}")
    perms = [
        (rng.randrange(MAGLEV_TABLE_SIZE),
         rng.randrange(1, MAGLEV_TABLE_SIZE))
        for _ in range(MAGLEV_BACKENDS)
    ]
    table = [-1] * MAGLEV_TABLE_SIZE
    next_idx = [0] * MAGLEV_BACKENDS
    filled = 0
    while filled < MAGLEV_TABLE_SIZE:
        for b in range(MAGLEV_BACKENDS):
            offset, skip = perms[b]
            while True:
                c = (offset + next_idx[b] * skip) % MAGLEV_TABLE_SIZE
                next_idx[b] += 1
                if table[c] < 0:
                    table[c] = b
                    filled += 1
                    break
            if filled == MAGLEV_TABLE_SIZE:
                break
    return table


@dataclass(frozen=True)
class ProgCase:
    """A bundled program plus its expected verdict."""

    prog: Program
    accept: bool
    summary: str
    #: Substring expected in the rejection message (reject cases only).
    reject_match: Optional[str] = None

    @property
    def name(self) -> str:
        return self.prog.name


def _cases() -> List[ProgCase]:
    cases: List[ProgCase] = []

    def case(accept: bool, summary: str, name: str, *insns,
             reject_match: Optional[str] = None) -> None:
        cases.append(ProgCase(
            prog=Program(insns, name=name),
            accept=accept,
            summary=summary,
            reject_match=reject_match,
        ))

    # -- guarded packet access ------------------------------------------
    case(
        True,
        "data_end-guarded 8-byte packet load (the canonical XDP pattern)",
        "pkt_guarded_read",
        Load(R2, R1, 0),             # r2 = ctx->data
        Load(R3, R1, 8),             # r3 = ctx->data_end
        Mov(R4, R2),
        Alu("add", R4, Imm(8)),      # r4 = data + 8
        JmpIf("gt", R4, R3, 7),      # if data + 8 > data_end: drop
        Load(R0, R2, 0),             # proven safe: elided at runtime
        Exit(),
        Mov(R0, Imm(1)),             # drop path
        Exit(),
    )
    case(
        False,
        "same load without the data_end comparison",
        "pkt_missing_guard",
        Load(R2, R1, 0),
        Load(R0, R2, 0),
        Exit(),
        reject_match="data_end",
    )
    case(
        True,
        "variable-offset packet load proven through a same-var guard",
        "pkt_var_offset",
        Mov(R6, R1),
        Call("bpf_get_prandom_u32"),
        Alu("and", R0, Imm(7)),      # r0 in [0, 7]
        Load(R2, R6, 0),
        Load(R3, R6, 8),
        Alu("add", R2, R0),          # r2 = data + var
        Mov(R4, R2),
        Alu("add", R4, Imm(8)),      # r4 = data + var + 8
        JmpIf("gt", R4, R3, 11),
        Load(R0, R2, 0),             # same var as the guard: proven
        Exit(),
        Mov(R0, Imm(1)),
        Exit(),
    )
    case(
        False,
        "variable-offset load whose guard covers a different scalar",
        "pkt_var_offset_wrong_guard",
        Mov(R6, R1),
        Call("bpf_get_prandom_u32"),
        Mov(R7, R0),                 # r7: first random
        Call("bpf_get_prandom_u32"),
        Alu("and", R0, Imm(7)),
        Alu("and", R7, Imm(7)),
        Load(R2, R6, 0),
        Load(R3, R6, 8),
        Mov(R4, R2),
        Alu("add", R4, R7),          # guard uses var A ...
        Alu("add", R4, Imm(8)),
        JmpIf("gt", R4, R3, 15),
        Alu("add", R2, R0),          # ... access uses var B
        Load(R0, R2, 0),
        Exit(),
        Mov(R0, Imm(1)),
        Exit(),
        reject_match="data_end",
    )

    # -- bounded loops ---------------------------------------------------
    case(
        True,
        "constant-trip-count loop (16 iterations, counter-driven exit)",
        "loop_counted",
        Mov(R6, Imm(0)),             # i = 0
        Mov(R7, Imm(0)),             # acc = 0
        Alu("add", R7, R6),          # loop: acc += i
        Alu("add", R6, Imm(1)),      # i += 1
        JmpIf("lt", R6, Imm(16), 2), # while i < 16
        Mov(R0, R7),
        Exit(),
    )
    case(
        False,
        "same loop with the counter increment removed",
        "loop_unbounded",
        Mov(R6, Imm(0)),
        Mov(R7, Imm(0)),
        Mov(R7, Imm(1)),             # loop body makes no progress
        JmpIf("lt", R6, Imm(16), 2),
        Mov(R0, R7),
        Exit(),
        reject_match="back-edge",
    )
    case(
        True,
        "loop writing a 4-slot stack table, then a guarded read back",
        "loop_stack_fill",
        Mov(R6, Imm(0)),             # i = 0
        Mov(R2, R10),
        Alu("sub", R2, Imm(32)),     # r2 = fp - 32
        Store(R2, 0, R6),            # loop: *(fp-32 + i*8) = i
        Alu("add", R2, Imm(8)),
        Alu("add", R6, Imm(1)),
        JmpIf("lt", R6, Imm(4), 3),
        Load(R0, R10, -16),
        Exit(),
    )

    # -- data-dependent loops (widening required) -----------------------
    # The trip count comes from packet data, so there is no constant
    # bound to unroll against: the seed verifier enumerates one abstract
    # state per trip and blows the state budget.  Widening joins the
    # header states into a single invariant and proves termination from
    # the monotone counter instead.
    case(
        True,
        "bounded linear search: scan up to n packet words for a needle",
        "loop_pkt_search",
        Load(R2, R1, 0),             # r2 = data
        Load(R3, R1, 8),             # r3 = data_end
        Mov(R4, R2),
        Alu("add", R4, Imm(8)),
        JmpIf("gt", R4, R3, 23),     # need one header word
        Load(R7, R2, 0),             # needle = first word
        Mov(R8, R7),
        Alu("and", R8, Imm(0x3FFF)), # n = needle & 0x3fff (data-dep bound)
        Mov(R6, Imm(0)),             # i = 0
        JmpIf("ge", R6, R8, 21),     # loop: while i < n
        Mov(R5, R6),
        Alu("lsh", R5, Imm(3)),      # i * 8
        Mov(R4, R2),
        Alu("add", R4, R5),          # p = data + i*8 (variable offset)
        Mov(R9, R4),
        Alu("add", R9, Imm(16)),
        JmpIf("gt", R9, R3, 21),     # cursor past end: not found
        Load(R0, R4, 8),             # word i (guarded above: elided)
        JmpIf("eq", R0, R7, 23),     # found the needle: drop
        Alu("add", R6, Imm(1)),      # i += 1
        Jmp(9),
        Mov(R0, Imm(2)),             # XDP_PASS (not found / end of data)
        Exit(),
        Mov(R0, Imm(1)),             # XDP_DROP (match or short packet)
        Exit(),
    )
    case(
        True,
        "LPM-style walk: divide a key by a packet-derived radix n times",
        "loop_lpm_walk",
        Load(R2, R1, 0),             # r2 = data
        Load(R3, R1, 8),             # r3 = data_end
        Mov(R4, R2),
        Alu("add", R4, Imm(16)),
        JmpIf("gt", R4, R3, 21),     # need two header words
        Load(R7, R2, 8),             # key = second word
        Mov(R8, R7),
        Alu("and", R8, Imm(0x3FFF)), # depth = key & 0x3fff (data-dep bound)
        Mov(R5, R7),
        Alu("and", R5, Imm(3)),
        Alu("add", R5, Imm(2)),      # radix in [2, 5]: nonzero invariant
        Mov(R6, Imm(0)),             # d = 0
        Mov(R9, R7),                 # acc = key
        Alu("div", R9, R5),          # loop: acc /= radix (check elided)
        Alu("add", R6, Imm(1)),      # d += 1
        JmpIf("lt", R6, R8, 13),     # while d < depth
        Mov(R0, R9),
        Alu("xor", R0, R6),
        Alu("and", R0, Imm(1)),
        Alu("add", R0, Imm(1)),      # verdict 1/2 from final parity
        Exit(),
        Mov(R0, Imm(1)),             # XDP_DROP (short packet)
        Exit(),
    )

    # -- range-proven division ------------------------------------------
    case(
        True,
        "division by a masked-then-offset scalar proven non-zero",
        "div_proven_nonzero",
        Call("bpf_get_prandom_u32"),
        Mov(R6, R0),
        Alu("and", R6, Imm(7)),
        Alu("add", R6, Imm(1)),      # r6 in [1, 8]
        Mov(R0, Imm(1000)),
        Alu("div", R0, R6),          # divisor proven != 0: check elided
        Exit(),
    )
    case(
        False,
        "division by an unproven scalar (range includes zero)",
        "div_maybe_zero",
        Call("bpf_get_prandom_u32"),
        Mov(R6, R0),
        Alu("and", R6, Imm(7)),      # r6 in [0, 7] — may be 0
        Mov(R0, Imm(1000)),
        Alu("div", R0, R6),
        Exit(),
        reject_match="division by zero",
    )

    # -- variable-offset stack access ------------------------------------
    case(
        True,
        "variable-offset read of an initialized, aligned stack region",
        "stack_var_offset",
        Store(R10, -8, Imm(11)),
        Store(R10, -16, Imm(22)),
        Store(R10, -24, Imm(33)),
        Store(R10, -32, Imm(44)),
        Call("bpf_get_prandom_u32"),
        Alu("and", R0, Imm(24)),     # r0 in {0, 8, 16, 24}
        Mov(R2, R10),
        Alu("sub", R2, Imm(32)),
        Alu("add", R2, R0),          # fp-32 + {0,8,16,24}
        Load(R0, R2, 0),
        Exit(),
    )
    case(
        False,
        "variable-offset read overlapping an uninitialized slot",
        "stack_var_offset_uninit",
        Store(R10, -8, Imm(11)),     # only fp-8 initialized
        Call("bpf_get_prandom_u32"),
        Alu("and", R0, Imm(24)),
        Mov(R2, R10),
        Alu("sub", R2, Imm(32)),
        Alu("add", R2, R0),
        Load(R0, R2, 0),
        Exit(),
        reject_match="uninitialized",
    )

    # -- kptr lifecycle ---------------------------------------------------
    case(
        True,
        "alloc / null-check / store / release kptr lifecycle",
        "kptr_lifecycle",
        Mov(R1, Imm(64)),
        Call("bpf_obj_new"),
        JmpIf("eq", R0, Imm(0), 7),  # NULL: bail
        Mov(R6, R0),
        Store(R6, 0, Imm(7)),
        Mov(R1, R6),
        Call("bpf_obj_drop"),
        Mov(R0, Imm(0)),
        Exit(),
    )
    case(
        False,
        "allocated object never released (resource leak)",
        "kptr_leak",
        Mov(R1, Imm(64)),
        Call("bpf_obj_new"),
        JmpIf("eq", R0, Imm(0), 4),
        Mov(R6, R0),
        Mov(R0, Imm(0)),
        Exit(),
        reject_match="unreleased",
    )
    case(
        False,
        "dereference of a maybe-NULL lookup result",
        "kptr_missing_null_check",
        Mov(R1, Imm(1)),
        Mov(R2, R10),
        Alu("sub", R2, Imm(8)),
        Store(R10, -8, Imm(0)),
        Call("bpf_map_lookup_elem"),
        Load(R0, R0, 0),
        Exit(),
        reject_match="NULL",
    )

    # -- structural ------------------------------------------------------
    case(
        False,
        "stack access below the frame",
        "stack_oob",
        Store(R10, -520, Imm(1)),
        Mov(R0, Imm(0)),
        Exit(),
        reject_match="out of bounds",
    )
    # -- a whole NF ------------------------------------------------------
    # The data-plane demo program: parse a guarded 32-byte header, hash
    # the 5-tuple, fold through a range-proven mod, and return an XDP
    # verdict (1 = DROP, 2 = PASS).  Every safety check in the hot path
    # is statically discharged — 7 elisions per packet — which is what
    # the elision benchmark measures through repro.net.irnf.IrChainNf.
    case(
        True,
        "packet classifier NF: guarded parse + hash + proven mod -> verdict",
        "nf_classifier",
        Load(R2, R1, 0),             # r2 = ctx->data
        Load(R3, R1, 8),             # r3 = ctx->data_end
        Mov(R4, R2),
        Alu("add", R4, Imm(32)),     # header is 32 bytes
        JmpIf("gt", R4, R3, 21),     # short packet: drop
        Load(R6, R2, 0),             # src_ip     (elided)
        Load(R7, R2, 8),             # dst_ip     (elided)
        Load(R8, R2, 16),            # src_port   (elided)
        Load(R9, R2, 24),            # dst_port   (elided)
        Alu("xor", R6, R7),
        Alu("add", R6, R8),
        Alu("xor", R6, R9),          # r6 = flow hash
        Mov(R5, R6),
        Alu("and", R5, Imm(7)),
        Alu("add", R5, Imm(1)),      # r5 in [1, 8]
        Alu("mod", R6, R5),          # divisor proven non-zero (elided)
        Store(R10, -8, R6),          # spill     (elided)
        Load(R0, R10, -8),           # reload    (elided)
        Alu("and", R0, Imm(1)),
        Alu("add", R0, Imm(1)),      # 1 = XDP_DROP, 2 = XDP_PASS
        Exit(),
        Mov(R0, Imm(1)),             # drop path
        Exit(),
    )

    # Count-min sketch NF (eNetSTL §4 use case): a counted loop hashes
    # the 4 guarded header words (the JIT unrolls it via the verifier's
    # trip-count proof), then the sketch update itself — the per-packet
    # data-structure work — runs in the enetstl_cm_update kfunc.  Flows
    # whose estimated count exceeds the threshold are dropped (heavy-
    # hitter policing): 1 = XDP_DROP, 2 = XDP_PASS.
    case(
        True,
        "count-min sketch NF: loop-hashed header + kfunc update -> police",
        "nf_cm_sketch",
        Load(R2, R1, 0),             # r2 = ctx->data
        Load(R3, R1, 8),             # r3 = ctx->data_end
        Mov(R4, R2),
        Alu("add", R4, Imm(32)),     # header is 32 bytes
        JmpIf("gt", R4, R3, 18),     # short packet: drop
        Mov(R6, Imm(0)),             # i = 0
        Mov(R7, Imm(0)),             # hash = 0
        Load(R8, R2, 0),             # loop: word = *cursor   (elided)
        Alu("xor", R7, R8),
        Alu("mul", R7, Imm(31)),     # hash = (hash ^ word) * 31
        Alu("add", R2, Imm(8)),      # cursor += 8
        Alu("add", R6, Imm(1)),      # i += 1
        JmpIf("lt", R6, Imm(4), 7),  # while i < 4
        Mov(R1, R7),
        Call("enetstl_cm_update"),   # r0 = estimated flow count
        JmpIf("gt", R0, Imm(4096), 18),  # heavy hitter: drop
        Mov(R0, Imm(2)),             # 2 = XDP_PASS
        Exit(),
        Mov(R0, Imm(1)),             # 1 = XDP_DROP
        Exit(),
    )
    # Maglev load-balancer NF (eNetSTL §4 use case): hash the guarded
    # 5-tuple in IR, pick a backend through the consistent-hash lookup
    # table behind enetstl_maglev_pick, spill/reload the choice through
    # the stack (both proven, both elided), and emit 3 = XDP_TX or
    # 4 = XDP_REDIRECT by backend parity.
    case(
        True,
        "Maglev NF: guarded 5-tuple hash + kfunc backend pick -> tx/redirect",
        "nf_maglev_pick",
        Load(R2, R1, 0),             # r2 = ctx->data
        Load(R3, R1, 8),             # r3 = ctx->data_end
        Mov(R4, R2),
        Alu("add", R4, Imm(32)),
        JmpIf("gt", R4, R3, 19),     # short packet: drop
        Load(R6, R2, 0),             # src_ip     (elided)
        Load(R7, R2, 8),             # dst_ip     (elided)
        Load(R8, R2, 16),            # src_port   (elided)
        Load(R9, R2, 24),            # dst_port   (elided)
        Alu("xor", R6, R7),
        Alu("add", R6, R8),
        Alu("xor", R6, R9),          # r6 = flow hash
        Mov(R1, R6),
        Call("enetstl_maglev_pick"), # r0 = backend id
        Store(R10, -8, R0),          # spill backend   (elided)
        Load(R0, R10, -8),           # reload          (elided)
        Alu("and", R0, Imm(1)),
        Alu("add", R0, Imm(3)),      # 3 = XDP_TX, 4 = XDP_REDIRECT
        Exit(),
        Mov(R0, Imm(1)),             # drop path
        Exit(),
    )

    case(
        True,
        "branchy scalar flow where range refinement prunes a dead path",
        "range_dead_branch",
        Mov(R6, Imm(5)),
        JmpIf("gt", R6, Imm(10), 4), # statically never taken
        Mov(R0, Imm(0)),
        Exit(),
        Alu("div", R0, Imm(0)),      # dead: never verified
        Exit(),
    )
    return cases


_BUNDLED: Optional[Dict[str, ProgCase]] = None


def bundled_cases() -> Tuple[ProgCase, ...]:
    """All bundled cases, in definition order."""
    global _BUNDLED
    if _BUNDLED is None:
        _BUNDLED = {c.name: c for c in _cases()}
    return tuple(_BUNDLED.values())


def get_case(name: str) -> ProgCase:
    bundled_cases()
    assert _BUNDLED is not None
    if name not in _BUNDLED:
        known = ", ".join(sorted(_BUNDLED))
        raise KeyError(f"no bundled program {name!r} (known: {known})")
    return _BUNDLED[name]


#: The chainable bundled NFs, in pipeline order.  Maglev never returns
#: ``XDP_PASS`` (its verdicts are TX/REDIRECT/DROP), so it only makes
#: sense as a chain's final stage — which the fixed order guarantees.
NF_CHAIN_STAGES = ("nf_classifier", "nf_cm_sketch", "nf_maglev_pick")


def bundled_chains() -> Tuple[Tuple[str, ...], ...]:
    """Every non-empty ordered subsequence of :data:`NF_CHAIN_STAGES` —
    the chain combinations the fusion parity surface covers (7 total:
    3 singles, 3 pairs, 1 triple)."""
    names = NF_CHAIN_STAGES
    out: List[Tuple[str, ...]] = []
    for mask in range(1, 1 << len(names)):
        out.append(tuple(n for i, n in enumerate(names) if mask >> i & 1))
    out.sort(key=len)
    return tuple(out)


def runnable_registry(seed: int = 0) -> KfuncRegistry:
    """:func:`default_registry` metadata with deterministic impls bound.

    Verification needs only metadata; *running* a program on the VM
    needs implementations.  These are seed-deterministic, so two
    registries built with the same seed drive bit-identical executions
    — the property the elision ablation and the differential fuzz test
    rely on.  State (PRNG, clock, map table, xchg slot) lives in the
    registry closure and is shared by every VM using it.
    """
    rng = random.Random(seed)
    state: Dict[str, object] = {"ns": 0, "xchg": None}
    table: Dict[int, KernelObject] = {}

    def prandom(vm):
        return rng.getrandbits(32)

    def ktime(vm):
        state["ns"] = int(state["ns"]) + 1000  # 1us per call
        return state["ns"]

    def map_lookup(vm, key, _value_ptr):
        obj = table.get(int(key) & MASK64)
        return Pointer(obj) if obj is not None and obj.alive else None

    def map_update(vm, key, _key_ptr, _value_ptr):
        # Un-sized kptr returns (no size_arg in the meta) are bounded
        # by KPTR_REGION_SIZE in the verifier — the impl must provide
        # at least that much backing store.
        table.setdefault(
            int(key) & MASK64, KernelObject(KPTR_REGION_SIZE, tag="elem")
        )
        return 0

    def obj_new(vm, size):
        # Mirror the verifier's sizing exactly: the declared constant,
        # capped at KPTR_REGION_SIZE.
        obj = KernelObject(min(int(size) & MASK64, KPTR_REGION_SIZE), tag="obj")
        vm.live_objects.append(obj)
        return Pointer(obj)

    def obj_drop(vm, ptr):
        ptr.region.free()
        return None

    def kptr_xchg(vm, _map_ptr, kptr):
        prev = state["xchg"]
        state["xchg"] = kptr
        return prev

    cm = [[0] * CM_WIDTH for _ in range(CM_ROWS)]
    maglev = _maglev_table(seed)

    def cm_update(vm, key):
        # Count-min: bump one counter per row, return the min estimate.
        k = int(key) & MASK64
        est = None
        for row, salt in enumerate(_CM_SALTS):
            h = ((k ^ salt) * 0x2545F4914F6CDD1D) & MASK64
            counters = cm[row]
            idx = (h >> 32) & (CM_WIDTH - 1)
            counters[idx] += 1
            c = counters[idx]
            if est is None or c < est:
                est = c
        return est

    def maglev_pick(vm, flow_hash):
        return maglev[(int(flow_hash) & MASK64) % MAGLEV_TABLE_SIZE]

    # -- fusion inline specs --------------------------------------------
    # Small-body kfuncs publish a codegen spec the chain fuser
    # (repro.ebpf.fuse) expands at the call site: (arg register names,
    # bind, hashed) -> (setup lines, int expression).  ``bind`` burns
    # closure state — the sketch rows, the Maglev steering table, the
    # PRNG method — into the generated code's globals; ``hashed(i,
    # seed)`` names a prologue list of ``fast_hash32(arg_i, seed)`` per
    # packet, or returns None (these specs hash nothing).  Each spec
    # must be bit-identical to its impl: registers arrive already
    # masked to 64 bits, and the expression's value must equal
    # ``int(impl(...))``.

    def _inline_prandom(args, bind, hashed):
        grb = bind("grb", rng.getrandbits)
        return [], f"{grb}(32)"

    prandom._fuse_inline = _inline_prandom

    def _inline_cm_update(args, bind, hashed):
        # The row loop unrolled with salts, mixer, and geometry burned
        # in as literals; min() over the post-increment counts mirrors
        # cm_update's running minimum.
        rows = bind("cm", cm)
        lines = [f"_ck = {args[0]}"]
        mins = []
        for i, salt in enumerate(_CM_SALTS):
            lines.append(f"_cr{i} = {rows}[{i}]")
            lines.append(
                f"_cx{i} = ((((_ck ^ {salt}) * 0x2545F4914F6CDD1D)"
                f" & {MASK64}) >> 32) & {CM_WIDTH - 1}"
            )
            lines.append(f"_cv{i} = _cr{i}[_cx{i}] + 1")
            lines.append(f"_cr{i}[_cx{i}] = _cv{i}")
            mins.append(f"_cv{i}")
        return lines, f"min({', '.join(mins)})"

    cm_update._fuse_inline = _inline_cm_update

    def _inline_maglev_pick(args, bind, hashed):
        # The whole steering table becomes a closure constant: one
        # modulo plus one tuple index per packet.
        table = bind("mgt", tuple(maglev))
        return [], f"{table}[{args[0]} % {MAGLEV_TABLE_SIZE}]"

    maglev_pick._fuse_inline = _inline_maglev_pick

    impls = {
        "bpf_get_prandom_u32": prandom,
        "bpf_ktime_get_ns": ktime,
        "bpf_map_lookup_elem": map_lookup,
        "bpf_map_update_elem": map_update,
        "bpf_obj_new": obj_new,
        "bpf_obj_drop": obj_drop,
        "bpf_kptr_xchg": kptr_xchg,
        "enetstl_cm_update": cm_update,
        "enetstl_maglev_pick": maglev_pick,
    }
    reg = KfuncRegistry()
    for meta in default_registry():
        reg.register(dataclasses.replace(meta, impl=impls.get(meta.name)))
    return reg
