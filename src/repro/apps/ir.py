"""Verified-IR ports of the Fig. 7 application hot paths.

The legacy apps in this package (:mod:`repro.apps.katran`,
:mod:`repro.apps.rakelimit`, :mod:`repro.apps.polycube`,
:mod:`repro.apps.sketchsuite`) model the paper's component-swap
experiment with a standalone cost model: Python methods charge cycle
constants per helper call.  This module re-expresses each app's
per-packet hot path as a chain of *verified IR programs* — the same
pipeline shape the production apps run as compiled XDP — so the whole
app executes on the repo's fast-path stack: the range verifier proves
the packet guards, the JIT lowers each stage, and
:mod:`repro.ebpf.fuse` burns the full chain plus the batch loop into
one closure per app.

The eNetSTL data-structure operations stay *out* of the IR, exactly as
the paper argues they should: each one is a kfunc whose impl drives the
real library structure (blocked-cuckoo connection table, per-level
count-min sketches, learning FDB, heavy-hitter heap) and publishes a
``_fuse_inline`` codegen spec so chain fusion expands it at the call
site with its state bound as closure constants.  The inline expression
is bit-identical to the impl by construction — stateful operations
share one plain-Python closure between the two paths; table-lookup
operations burn the *mutable* table into the generated code so the
control plane (``KatranState.fail_real``) stays authoritative even for
a fused build.

Apps, chain shapes, and verdict conventions
-------------------------------------------

- ``katran``   — L4 load balancer: extended parse → connection-table
  lookup (``enetstl_conn_lookup``) → consistent-hash pick for new flows
  (``enetstl_ch_pick`` + ``enetstl_conn_insert``) → per-real stats →
  encap verdict (``XDP_TX``/``XDP_REDIRECT`` by real parity).
- ``rakelimit`` — hierarchical per-(flow, src, net, dst) rate limiter:
  one kfunc updates all four level sketches and returns the worst
  estimate; over-threshold flows drop.
- ``polycube``  — learning-bridge policy chain: stage 1 learns the
  source MAC behind a 2-hash learn filter, stage 2 forwards — known
  destination ``XDP_REDIRECT``, unknown floods with ``XDP_PASS``.
- ``sketches``  — telemetry + policing pass: count-min estimate,
  heavy-hitter heap offer, universal-sketch level sample; flows whose
  estimate exceeds the policing threshold drop.

Every chain runs through :class:`~repro.net.irnf.IrChainNf` on either
backend (``interp``/``fused``) with bit-identical verdicts and cycle
charges, and multi-core under
:class:`~repro.net.multicore.RssDispatcher` via :func:`app_nf_factory`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.algorithms.hashing import fast_hash32
from ..datastructs.cuckoo import BlockedCuckooTable
from ..datastructs.heap import TopKHeap
from ..ebpf.insn import (
    R0,
    R1,
    R2,
    R3,
    R4,
    R6,
    R7,
    R8,
    R9,
    R10,
    Alu,
    Call,
    Exit,
    Imm,
    Insn,
    Jmp,
    JmpIf,
    Load,
    Mov,
    Program,
    Store,
)
from ..ebpf.header import (
    HEADER_BYTES,
    PKT_DST_IP,
    PKT_DST_PORT,
    PKT_PROTO,
    PKT_SRC_IP,
    PKT_SRC_PORT,
)
from ..ebpf.kfunc_meta import ARG_SCALAR, RET_SCALAR, KfuncRegistry
from ..ebpf.progs import runnable_registry
from ..ebpf.vm import MASK64

#: App names, in Fig. 7 order (same keys as ``repro.apps.ALL_APPS``).
IR_APP_NAMES = ("katran", "rakelimit", "polycube", "sketches")

# -- Katran geometry --------------------------------------------------------
#: Backend pool size for the L4 load balancer.
KATRAN_REALS = 8
#: Consistent-hash ring size (prime, per the Maglev paper).
CH_RING_SIZE = 509
#: Connection-table geometry (power-of-two buckets, blocked slots).
CONN_BUCKETS = 4096
CONN_SLOTS = 8

# -- rakelimit geometry -----------------------------------------------------
RAKE_LEVELS = 4
RAKE_WIDTH = 2048
#: Default per-level estimate above which the limiter drops.
RAKE_DROP_THRESHOLD = 96

# -- polycube geometry ------------------------------------------------------
PCN_PORTS = 8
PCN_FILTER_BITS = 1 << 12
_PCN_FILTER_SALT = 300

# -- sketchsuite geometry ---------------------------------------------------
SK_ROWS = 5
SK_WIDTH = 2048
SK_UNIV_LEVELS = 2
SK_HEAP_CAPACITY = 64
#: Default count-min estimate above which the policing pass drops.
SK_DROP_THRESHOLD = 128
#: Fixed per-row salts (splitmix64-style odd constants), mirroring the
#: bundled count-min kfunc's determinism-without-PRNG approach.
_SK_SALTS = (
    0x9E3779B97F4A7C15,
    0xC2B2AE3D27D4EB4F,
    0x165667B19E3779F9,
    0x27D4EB2F165667C5,
    0x85EBCA77C2B2AE63,
)
_SK_MIX = 0x2545F4914F6CDD1D


# ---------------------------------------------------------------------------
# Label-resolving program builder
# ---------------------------------------------------------------------------

def _prog(name: str, *items) -> Program:
    """Build a :class:`Program` from instructions interleaved with
    string labels; ``Jmp``/``JmpIf`` may target a label by name.

    Absolute indices are error-prone at this program size (the katran
    stage is ~30 instructions with three join points), so the app
    chains are written symbolically and resolved here.
    """
    labels: Dict[str, int] = {}
    insns: List[Insn] = []
    for item in items:
        if isinstance(item, str):
            if item in labels:
                raise ValueError(f"{name}: duplicate label {item!r}")
            labels[item] = len(insns)
        else:
            insns.append(item)
    resolved: List[Insn] = []
    for insn in insns:
        if isinstance(insn, (Jmp, JmpIf)) and isinstance(insn.target, str):
            if insn.target not in labels:
                raise ValueError(f"{name}: unknown label {insn.target!r}")
            resolved.append(
                dataclasses.replace(insn, target=labels[insn.target])
            )
        else:
            resolved.append(insn)
    return Program(resolved, name=name)


# ---------------------------------------------------------------------------
# App state (the library structures behind the kfuncs)
# ---------------------------------------------------------------------------

class KatranState:
    """Connection table + consistent-hash ring + per-real stats.

    The ring is a *mutable list* shared by the kfunc impl and — via
    ``bind`` — every fused closure built from this registry, so the
    control plane can repack it in place (:meth:`fail_real`) and both
    builds observe the change on the very next packet.
    """

    def __init__(self, n_reals: int = KATRAN_REALS, seed: int = 0) -> None:
        if n_reals <= 0:
            raise ValueError("n_reals must be positive")
        self.n_reals = n_reals
        self.seed = seed
        self.alive: List[int] = list(range(n_reals))
        self.ring: List[int] = [0] * CH_RING_SIZE
        self.conns = BlockedCuckooTable(
            CONN_BUCKETS, CONN_SLOTS, seed=seed + 11
        )
        self.stats: List[int] = [0] * n_reals
        self.evicted = 0
        self.fill_ring()

    def _perm(self, real: int) -> Tuple[int, int]:
        """Maglev permutation parameters for one real — derived from
        the real's identity alone, so removing a backend leaves the
        survivors' preference sequences untouched (the minimal-
        disruption property)."""
        offset = fast_hash32(real, self.seed * 2 + 1) % CH_RING_SIZE
        skip = fast_hash32(real, self.seed * 2 + 2) % (CH_RING_SIZE - 1) + 1
        return offset, skip

    def fill_ring(self) -> None:
        """Maglev permutation fill over the currently alive reals,
        repacking ``self.ring`` *in place* (fused closures hold a
        reference to this exact list)."""
        perms = {real: self._perm(real) for real in self.alive}
        next_idx = {real: 0 for real in self.alive}
        table = [-1] * CH_RING_SIZE
        filled = 0
        while filled < CH_RING_SIZE:
            for real in self.alive:
                offset, skip = perms[real]
                while True:
                    c = (offset + next_idx[real] * skip) % CH_RING_SIZE
                    next_idx[real] += 1
                    if table[c] < 0:
                        table[c] = real
                        filled += 1
                        break
                if filled == CH_RING_SIZE:
                    break
        self.ring[:] = table

    def fail_real(self, real: int) -> Dict[str, int]:
        """Control-plane backend failure: drop ``real`` from the alive
        set, repack the ring, and evict every connection pinned to it
        (those flows re-pick through the ring on their next packet).

        Returns a disruption report: ``moved`` counts ring slots that
        changed owner *among slots that did not point at the failed
        real* — Maglev's disruption metric — and ``evicted`` the
        connection-table entries flushed.
        """
        if real not in self.alive:
            raise ValueError(f"real {real} is not alive")
        before = list(self.ring)
        self.alive.remove(real)
        if not self.alive:
            raise ValueError("cannot fail the last alive real")
        self.fill_ring()
        moved = sum(
            1
            for old, new in zip(before, self.ring)
            if old != real and old != new
        )
        reassigned = sum(1 for old in before if old == real)
        victims = [
            key for key, value in self.conns.items() if value == real
        ]
        for key in victims:
            self.conns.delete(key)
        self.evicted += len(victims)
        return {
            "real": real,
            "moved": moved,
            "reassigned": reassigned,
            "evicted": len(victims),
            "ring_size": CH_RING_SIZE,
        }


class AppState:
    """All four apps' library structures for one kfunc registry."""

    def __init__(self, seed: int = 0, n_reals: int = KATRAN_REALS) -> None:
        self.seed = seed
        self.katran = KatranState(n_reals=n_reals, seed=seed)
        self.rake_levels: List[List[int]] = [
            [0] * RAKE_WIDTH for _ in range(RAKE_LEVELS)
        ]
        self.fdb: Dict[int, int] = {}
        self.learn_filter: List[int] = [0] * PCN_FILTER_BITS
        self.sk_rows: List[List[int]] = [
            [0] * SK_WIDTH for _ in range(SK_ROWS)
        ]
        self.univ_rows: List[List[int]] = [
            [0] * SK_WIDTH for _ in range(SK_UNIV_LEVELS)
        ]
        self.heap = TopKHeap(SK_HEAP_CAPACITY)


# ---------------------------------------------------------------------------
# Registry: app kfuncs with fusion inline specs
# ---------------------------------------------------------------------------

def ir_registry(seed: int = 0, n_reals: int = KATRAN_REALS) -> KfuncRegistry:
    """:func:`~repro.ebpf.progs.runnable_registry` extended with the
    app library kfuncs, impls bound to a fresh :class:`AppState`.

    Same-seed registries drive bit-identical executions — the parity
    contract every backend comparison in this module relies on.  The
    state object is reachable as ``registry.app_state`` so tests and
    the cluster-day control plane can inject failures and read
    structures back out.

    Inline-spec strategy (two deliberate flavours):

    - *Expression inlining* for table reads and unrollable sketch
      updates (``enetstl_ch_pick``, ``enetstl_sketch_cnt``,
      ``enetstl_rake_update``): geometry and salts become literals,
      state lists become bound closure constants.  ``ch_pick`` binds
      the **mutable** ring list — not a frozen copy — so control-plane
      repacks reach fused code.
    - *Bound-closure inlining* for operations whose body is a real
      library algorithm (cuckoo lookup/insert, heap offer): the spec
      binds the same plain-Python closure the impl calls, collapsing
      the per-call VM overhead (argument marshalling, r1-r5 clobber
      bookkeeping) while keeping one source of truth for the data
      structure's behaviour.

    Either flavour reads a packet-pure argument's ``fast_hash32`` from
    the fuser's per-batch hash prologue when ``hashed`` offers it
    (RakeLimit's four levels, the learn filter's two, the universal
    sample's two); the learn and sample closures take the hashes as
    arguments, and their scalar impls hash and call the same body.
    """
    reg = runnable_registry(seed)
    state = AppState(seed=seed, n_reals=n_reals)
    kat = state.katran

    # -- katran ---------------------------------------------------------

    def _conn_lookup(key: int) -> int:
        real = kat.conns.lookup(key)
        return 0 if real is None else real + 1

    def _conn_insert(key: int, real: int) -> int:
        return 1 if kat.conns.insert(key, real) else 0

    def _lb_stats(real: int) -> int:
        s = kat.stats
        idx = real % kat.n_reals
        s[idx] += 1
        return s[idx]

    def conn_lookup(vm, key):
        return _conn_lookup(key)

    def conn_insert(vm, key, real):
        return _conn_insert(key, real)

    def ch_pick(vm, flow_hash):
        return kat.ring[flow_hash % CH_RING_SIZE]

    def lb_stats(vm, real):
        return _lb_stats(real)

    def _inline_conn_lookup(args, bind, hashed):
        fn = bind("kcl", _conn_lookup)
        return [], f"{fn}({args[0]})"

    conn_lookup._fuse_inline = _inline_conn_lookup

    def _inline_conn_insert(args, bind, hashed):
        fn = bind("kci", _conn_insert)
        return [], f"{fn}({args[0]}, {args[1]})"

    conn_insert._fuse_inline = _inline_conn_insert

    def _inline_ch_pick(args, bind, hashed):
        # The live ring list (not a copy): one modulo + one list index
        # per new flow, and fail_real()'s in-place repack is visible to
        # every already-fused closure.
        ring = bind("kring", kat.ring)
        return [], f"{ring}[{args[0]} % {CH_RING_SIZE}]"

    ch_pick._fuse_inline = _inline_ch_pick

    def _inline_lb_stats(args, bind, hashed):
        fn = bind("kst", _lb_stats)
        return [], f"{fn}({args[0]})"

    lb_stats._fuse_inline = _inline_lb_stats

    # -- rakelimit ------------------------------------------------------

    levels = state.rake_levels

    def _rake_update(k0: int, k1: int, k2: int, k3: int) -> int:
        worst = 0
        for level, key in enumerate((k0, k1, k2, k3)):
            row = levels[level]
            col = fast_hash32(key, 1000 * level) % RAKE_WIDTH
            row[col] += 1
            if row[col] > worst:
                worst = row[col]
        return worst

    def rake_update(vm, k0, k1, k2, k3):
        return _rake_update(k0, k1, k2, k3)

    def _inline_rake_update(args, bind, hashed):
        # All four hierarchy levels unrolled: per-level salt and the
        # sketch width burned in as literals, the rows bound once; a
        # level key that is packet-pure reads its hash from the prologue.
        fh = bind("rfh", fast_hash32)
        lv = bind("rlv", levels)
        lines = []
        vals = []
        for i in range(RAKE_LEVELS):
            h = hashed(i, 1000 * i)
            hx = f"{h}[_i]" if h else f"{fh}({args[i]}, {1000 * i})"
            lines.append(f"_rr{i} = {lv}[{i}]")
            lines.append(f"_rc{i} = {hx} % {RAKE_WIDTH}")
            lines.append(f"_rv{i} = _rr{i}[_rc{i}] + 1")
            lines.append(f"_rr{i}[_rc{i}] = _rv{i}")
            vals.append(f"_rv{i}")
        return lines, f"max({', '.join(vals)})"

    rake_update._fuse_inline = _inline_rake_update

    # -- polycube -------------------------------------------------------

    fdb = state.fdb
    bits = state.learn_filter

    def _fdb_learn_hashed(mac: int, port: int, h0: int, h1: int) -> int:
        """Learn ``mac`` given its two learn-filter hashes."""
        b0 = h0 % PCN_FILTER_BITS
        b1 = h1 % PCN_FILTER_BITS
        fresh = not (bits[b0] and bits[b1])
        bits[b0] = 1
        bits[b1] = 1
        fdb[mac] = port % PCN_PORTS
        return 1 if fresh else 0

    def _fdb_learn(mac: int, port: int) -> int:
        return _fdb_learn_hashed(
            mac,
            port,
            fast_hash32(mac, _PCN_FILTER_SALT),
            fast_hash32(mac, _PCN_FILTER_SALT + 1),
        )

    def _fdb_lookup(mac: int) -> int:
        port = fdb.get(mac)
        return 0 if port is None else port + 1

    def fdb_learn(vm, mac, port):
        return _fdb_learn(mac, port)

    def fdb_lookup(vm, mac):
        return _fdb_lookup(mac)

    def _inline_fdb_learn(args, bind, hashed):
        h0 = hashed(0, _PCN_FILTER_SALT)
        if not h0:
            fn = bind("pfl", _fdb_learn)
            return [], f"{fn}({args[0]}, {args[1]})"
        h1 = hashed(0, _PCN_FILTER_SALT + 1)
        fn = bind("pflh", _fdb_learn_hashed)
        return [], f"{fn}({args[0]}, {args[1]}, {h0}[_i], {h1}[_i])"

    fdb_learn._fuse_inline = _inline_fdb_learn

    def _inline_fdb_lookup(args, bind, hashed):
        # dict.get bound directly: a known MAC costs one hash probe.
        get = bind("pfg", fdb.get)
        return [f"_fdp = {get}({args[0]})"], "0 if _fdp is None else _fdp + 1"

    fdb_lookup._fuse_inline = _inline_fdb_lookup

    # -- sketchsuite ----------------------------------------------------

    sk_rows = state.sk_rows
    univ_rows = state.univ_rows
    heap = state.heap

    def _sketch_cnt(key: int) -> int:
        est = None
        for row, salt in enumerate(_SK_SALTS):
            h = ((key ^ salt) * _SK_MIX) & MASK64
            counters = sk_rows[row]
            col = (h >> 32) % SK_WIDTH
            counters[col] += 1
            if est is None or counters[col] < est:
                est = counters[col]
        return est

    def _hh_offer(key: int, est: int) -> int:
        return 1 if heap.offer(key, est) else 0

    def _univ_sampled(
        key: int, h: int, h_row0: Optional[int] = None
    ) -> int:
        """Sample ``key`` given its level hash (seed 500) and, if known,
        its level-0 row hash (seed 50)."""
        level = 0
        while level < SK_UNIV_LEVELS - 1 and (h >> level) & 1:
            level += 1
        if level or h_row0 is None:
            h_row0 = fast_hash32(key, 50 + level)
        univ_rows[level][h_row0 % SK_WIDTH] += 1
        return level

    def _univ_sample(key: int) -> int:
        return _univ_sampled(key, fast_hash32(key, 500))

    def sketch_cnt(vm, key):
        return _sketch_cnt(key)

    def hh_offer(vm, key, est):
        return _hh_offer(key, est)

    def univ_sample(vm, key):
        return _univ_sample(key)

    def _inline_sketch_cnt(args, bind, hashed):
        # Five rows unrolled with salts, mixer, and width as literals;
        # min() over the post-increment counts mirrors the impl's
        # running minimum.
        rows = bind("skr", sk_rows)
        lines = [f"_sk = {args[0]}"]
        mins = []
        for i, salt in enumerate(_SK_SALTS):
            lines.append(f"_sr{i} = {rows}[{i}]")
            lines.append(
                f"_sc{i} = ((((_sk ^ {salt}) * {_SK_MIX})"
                f" & {MASK64}) >> 32) % {SK_WIDTH}"
            )
            lines.append(f"_sv{i} = _sr{i}[_sc{i}] + 1")
            lines.append(f"_sr{i}[_sc{i}] = _sv{i}")
            mins.append(f"_sv{i}")
        return lines, f"min({', '.join(mins)})"

    sketch_cnt._fuse_inline = _inline_sketch_cnt

    def _inline_hh_offer(args, bind, hashed):
        offer = bind("sho", heap.offer)
        return [], f"1 if {offer}({args[0]}, {args[1]}) else 0"

    hh_offer._fuse_inline = _inline_hh_offer

    def _inline_univ_sample(args, bind, hashed):
        # Both hashes hoist: the level-0 row hash is wasted on packets
        # that sample level 1, and still measured cheaper in lanes.
        h = hashed(0, 500)
        if not h:
            fn = bind("sus", _univ_sample)
            return [], f"{fn}({args[0]})"
        h_row0 = hashed(0, 50)
        fn = bind("sush", _univ_sampled)
        return [], f"{fn}({args[0]}, {h}[_i], {h_row0}[_i])"

    univ_sample._fuse_inline = _inline_univ_sample

    # -- registration ---------------------------------------------------

    scalar = dict(ret=RET_SCALAR, prog_types=("xdp", "tc"))
    reg.define(
        "enetstl_conn_lookup", args=(ARG_SCALAR,), impl=conn_lookup, **scalar
    )
    reg.define(
        "enetstl_conn_insert",
        args=(ARG_SCALAR, ARG_SCALAR),
        impl=conn_insert,
        **scalar,
    )
    reg.define(
        "enetstl_ch_pick", args=(ARG_SCALAR,), impl=ch_pick, **scalar
    )
    reg.define(
        "enetstl_lb_stats", args=(ARG_SCALAR,), impl=lb_stats, **scalar
    )
    reg.define(
        "enetstl_rake_update",
        args=(ARG_SCALAR,) * 4,
        impl=rake_update,
        **scalar,
    )
    reg.define(
        "enetstl_fdb_learn",
        args=(ARG_SCALAR, ARG_SCALAR),
        impl=fdb_learn,
        **scalar,
    )
    reg.define(
        "enetstl_fdb_lookup", args=(ARG_SCALAR,), impl=fdb_lookup, **scalar
    )
    reg.define(
        "enetstl_sketch_cnt", args=(ARG_SCALAR,), impl=sketch_cnt, **scalar
    )
    reg.define(
        "enetstl_hh_offer",
        args=(ARG_SCALAR, ARG_SCALAR),
        impl=hh_offer,
        **scalar,
    )
    reg.define(
        "enetstl_univ_sample", args=(ARG_SCALAR,), impl=univ_sample, **scalar
    )
    reg.app_state = state
    return reg


# ---------------------------------------------------------------------------
# IR programs: one parse stage + one app-core stage per app
# ---------------------------------------------------------------------------

def _parse_stage(name: str) -> Program:
    """Extended parse: guard the full 56-byte encoded header, reject
    protocol-zero frames (what fault-injected corruption produces),
    hand everything else to the app core.  The bounds proof from the
    guard is what lets every later load run check-free."""
    return _prog(
        name,
        Load(R2, R1, 0),               # r2 = ctx->data
        Load(R3, R1, 8),               # r3 = ctx->data_end
        Mov(R4, R2),
        Alu("add", R4, Imm(HEADER_BYTES)),
        JmpIf("gt", R4, R3, "drop"),   # short packet: drop
        Load(R6, R2, PKT_PROTO),      # proto          (elided)
        JmpIf("eq", R6, Imm(0), "drop"),
        Mov(R0, Imm(2)),               # 2 = XDP_PASS -> next stage
        Exit(),
        "drop",
        Mov(R0, Imm(1)),               # 1 = XDP_DROP
        Exit(),
    )


def _flow_key_preamble() -> List:
    """Guard + 4-tuple load + flow-key mix shared by the app cores:
    leaves the flow key in r6 with src/dst state in r7-r9."""
    return [
        Load(R2, R1, 0),               # r2 = ctx->data
        Load(R3, R1, 8),               # r3 = ctx->data_end
        Mov(R4, R2),
        Alu("add", R4, Imm(HEADER_BYTES)),
        JmpIf("gt", R4, R3, "drop"),   # short packet: drop
        Load(R6, R2, PKT_SRC_IP),     # src_ip         (elided)
        Load(R7, R2, PKT_DST_IP),     # dst_ip         (elided)
        Load(R8, R2, PKT_SRC_PORT),   # src_port       (elided)
        Load(R9, R2, PKT_DST_PORT),   # dst_port       (elided)
        Mov(R4, R6),
        Alu("xor", R4, R7),
        Alu("add", R4, R8),
        Alu("xor", R4, R9),            # r4 = flow key
        Mov(R6, R4),                   # keep it callee-saved
    ]


def katran_chain() -> Tuple[Program, Program]:
    """Parse → L4 load balance (conn table, CH ring, stats, encap)."""
    lb = _prog(
        "katran_lb",
        *_flow_key_preamble(),
        Mov(R1, R6),
        Call("enetstl_conn_lookup"),   # r0 = real+1, 0 on miss
        JmpIf("ne", R0, Imm(0), "hit"),
        Mov(R1, R6),
        Call("enetstl_ch_pick"),       # r0 = real for this flow hash
        Mov(R7, R0),
        Mov(R1, R6),
        Mov(R2, R7),
        Call("enetstl_conn_insert"),   # pin flow -> real
        Jmp("stats"),
        "hit",
        Mov(R7, R0),
        Alu("sub", R7, Imm(1)),        # real = r0 - 1
        "stats",
        Mov(R1, R7),
        Call("enetstl_lb_stats"),      # per-real packet counter
        Store(R10, -8, R7),            # spill real     (elided)
        Load(R0, R10, -8),             # reload         (elided)
        Alu("and", R0, Imm(1)),
        Alu("add", R0, Imm(3)),        # encap: 3 = TX, 4 = REDIRECT
        Exit(),
        "drop",
        Mov(R0, Imm(1)),
        Exit(),
    )
    return (_parse_stage("katran_parse"), lb)


def rakelimit_chain(
    drop_threshold: int = RAKE_DROP_THRESHOLD,
) -> Tuple[Program, Program]:
    """Parse → hierarchical rate limit (4 level keys, worst estimate)."""
    limit = _prog(
        "rake_limit",
        Load(R2, R1, 0),
        Load(R3, R1, 8),
        Mov(R4, R2),
        Alu("add", R4, Imm(HEADER_BYTES)),
        JmpIf("gt", R4, R3, "drop"),
        Load(R6, R2, PKT_SRC_IP),     # src_ip         (elided)
        Load(R7, R2, PKT_DST_IP),     # dst_ip         (elided)
        Load(R8, R2, PKT_SRC_PORT),   # src_port       (elided)
        Load(R9, R2, PKT_DST_PORT),   # dst_port       (elided)
        Mov(R1, R6),
        Alu("xor", R1, R7),
        Alu("add", R1, R8),
        Alu("xor", R1, R9),            # k0 = flow 4-tuple key
        Mov(R2, R6),                   # k1 = src host
        Mov(R3, R6),
        Alu("rsh", R3, Imm(8)),        # k2 = src /24 net
        Mov(R4, R7),                   # k3 = dst host
        Call("enetstl_rake_update"),   # r0 = worst level estimate
        JmpIf("gt", R0, Imm(drop_threshold), "drop"),
        Mov(R0, Imm(2)),               # under limit: pass
        Exit(),
        "drop",
        Mov(R0, Imm(1)),
        Exit(),
    )
    return (_parse_stage("rake_parse"), limit)


def polycube_chain() -> Tuple[Program, Program]:
    """Learn (src MAC behind the learn filter) → forward (FDB hit
    redirects, miss floods)."""
    learn = _prog(
        "pcn_learn",
        Load(R2, R1, 0),
        Load(R3, R1, 8),
        Mov(R4, R2),
        Alu("add", R4, Imm(HEADER_BYTES)),
        JmpIf("gt", R4, R3, "drop"),
        Load(R6, R2, PKT_SRC_IP),     # src_ip         (elided)
        Load(R7, R2, PKT_SRC_PORT),   # src_port       (elided)
        Mov(R8, R7),
        Alu("lsh", R8, Imm(32)),
        Alu("or", R8, R6),             # src MAC = ip | port << 32
        Mov(R9, R7),
        Alu("and", R9, Imm(PCN_PORTS - 1)),  # ingress port
        Mov(R1, R8),
        Mov(R2, R9),
        Call("enetstl_fdb_learn"),     # learn behind the 2-hash filter
        Mov(R0, Imm(2)),               # always hand to forward stage
        Exit(),
        "drop",
        Mov(R0, Imm(1)),
        Exit(),
    )
    forward = _prog(
        "pcn_forward",
        Load(R2, R1, 0),
        Load(R3, R1, 8),
        Mov(R4, R2),
        Alu("add", R4, Imm(HEADER_BYTES)),
        JmpIf("gt", R4, R3, "drop"),
        Load(R6, R2, PKT_DST_IP),     # dst_ip         (elided)
        Load(R7, R2, PKT_DST_PORT),   # dst_port       (elided)
        Mov(R8, R7),
        Alu("lsh", R8, Imm(32)),
        Alu("or", R8, R6),             # dst MAC = ip | port << 32
        Mov(R1, R8),
        Call("enetstl_fdb_lookup"),    # r0 = port+1, 0 on miss
        JmpIf("eq", R0, Imm(0), "flood"),
        Mov(R0, Imm(4)),               # known MAC: 4 = XDP_REDIRECT
        Exit(),
        "flood",
        Mov(R0, Imm(2)),               # unknown: flood = XDP_PASS
        Exit(),
        "drop",
        Mov(R0, Imm(1)),
        Exit(),
    )
    return (learn, forward)


def sketchsuite_chain(
    drop_threshold: int = SK_DROP_THRESHOLD,
) -> Tuple[Program, Program]:
    """Parse → telemetry (count-min + heap + universal sample) with
    heavy-hitter policing."""
    update = _prog(
        "sketch_update",
        *_flow_key_preamble(),
        Mov(R1, R6),
        Call("enetstl_sketch_cnt"),    # r0 = count-min estimate
        Mov(R7, R0),                   # save estimate across calls
        Mov(R1, R6),
        Mov(R2, R7),
        Call("enetstl_hh_offer"),      # heavy-hitter heap offer
        Mov(R1, R6),
        Call("enetstl_univ_sample"),   # universal-sketch level sample
        JmpIf("gt", R7, Imm(drop_threshold), "drop"),
        Mov(R0, Imm(2)),               # below policing bar: pass
        Exit(),
        "drop",
        Mov(R0, Imm(1)),               # heavy hitter: police
        Exit(),
    )
    return (_parse_stage("sketch_parse"), update)


_CHAIN_BUILDERS: Dict[str, Callable[[], Tuple[Program, ...]]] = {
    "katran": katran_chain,
    "rakelimit": rakelimit_chain,
    "polycube": polycube_chain,
    "sketches": sketchsuite_chain,
}


def app_chain(app: str) -> Tuple[Program, ...]:
    """The IR program chain for one app (fresh ``Program`` objects)."""
    try:
        return _CHAIN_BUILDERS[app]()
    except KeyError:
        raise ValueError(
            f"unknown app {app!r} (expected one of {IR_APP_NAMES})"
        ) from None


def app_chains() -> Dict[str, Tuple[Program, ...]]:
    """All four app chains, keyed like ``repro.apps.ALL_APPS``."""
    return {name: app_chain(name) for name in IR_APP_NAMES}


# ---------------------------------------------------------------------------
# NF wiring: single-core chains and multi-core factories
# ---------------------------------------------------------------------------

def app_nf(
    app: str,
    rt=None,
    backend: str = "fused",
    seed: int = 0,
    elide_checks: bool = True,
    registry: Optional[KfuncRegistry] = None,
):
    """One app pipeline as an :class:`~repro.net.irnf.IrChainNf`.

    ``registry`` defaults to a fresh :func:`ir_registry` at ``seed``;
    pass one explicitly to share app state across NFs or to reach
    ``registry.app_state`` for control-plane surgery.
    """
    from ..ebpf.runtime import BpfRuntime
    from ..net.irnf import IrChainNf

    if rt is None:
        rt = BpfRuntime()
    if registry is None:
        registry = ir_registry(seed)
    return IrChainNf(
        rt,
        app_chain(app),
        registry=registry,
        elide_checks=elide_checks,
        seed=seed,
        backend=backend,
    )


def app_nf_factory(
    app: str,
    backend: str = "fused",
    registry_seed: int = 0,
    elide_checks: bool = True,
    nf_seed: int = 0,
    n_reals: int = KATRAN_REALS,
) -> Callable[[int], object]:
    """An ``nf_factory`` for :class:`~repro.net.multicore.RssDispatcher`
    running one app's fused or interpreted chain on every core, each
    with a private :func:`ir_registry` (seed-decorrelated per core,
    like the bundled-chain factory)."""
    from ..net.multicore import chain_nf_factory

    return chain_nf_factory(
        app_chain(app),
        backend=backend,
        registry_seed=registry_seed,
        elide_checks=elide_checks,
        nf_seed=nf_seed,
        registry_factory=lambda core: ir_registry(
            registry_seed + core, n_reals=n_reals
        ),
    )


def verify_app_chains(strict: bool = True) -> Dict[str, int]:
    """Verify every app stage against :func:`ir_registry` metadata;
    returns ``{program_name: analyzed_state_count}``.  Raises on the
    first rejection — all four hot paths are accept cases by contract.
    """
    from ..ebpf.verifier import Verifier

    verifier = Verifier(ir_registry(0))
    states: Dict[str, int] = {}
    for name in IR_APP_NAMES:
        for prog in app_chain(name):
            vp = verifier.verify(prog)
            states[prog.name] = getattr(vp, "states_explored", 0)
    return states
