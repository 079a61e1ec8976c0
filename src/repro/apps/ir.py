"""Verified-IR ports of the Fig. 7 application hot paths.

Each app's per-packet hot path is a chain of *verified IR programs* —
the same pipeline shape the production apps run as compiled XDP — so
the whole app executes on the repo's fast-path stack: the range
verifier proves the packet guards, and :mod:`repro.ebpf.fuse` compiles
the full chain plus the batch loop into one closure per app.

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

Fig. 7 builds
-------------

The paper's component swap is a BPF helper-call path against a kfunc
call path.  :func:`fig7_nfs` runs one app's chain as both builds:
``"origin"`` (the stock project: BPF hash maps behind helpers,
per-row software hashes, a ``bpf_get_prandom_u32`` per packet) or
``"enetstl"`` (blocked-cuckoo lookups via ``hw_hash_crc`` +
``find_simd``, unified ``hash_simd`` sketch updates, percpu state).
Both builds share the verified chain and the kfunc impls (each on its
own app state), so verdicts and app state are identical; they differ
only in what each kfunc call charges (:func:`fig7_charges`).  The
fleets run the uncharged :func:`ir_registry`.

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
import functools
from typing import Callable, Dict, List, Optional, Tuple

from ..core.algorithms.hashing import fast_hash32, salted_hash32
from ..core.kfunc import LibraryPrices
from ..datastructs.countmin import CountMinSketch
from ..datastructs.cuckoo import BlockedCuckooTable
from ..datastructs.heap import TopKHeap
from ..datastructs.maglev import maglev_fill
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
from ..ebpf.cost_model import Category, CostModel, ExecMode
from ..ebpf.header import (
    HEADER_BYTES,
    PKT_DST_IP,
    PKT_DST_PORT,
    PKT_PROTO,
    PKT_SRC_IP,
    PKT_SRC_PORT,
)
from ..ebpf.kfunc_meta import ARG_SCALAR, RET_SCALAR, KfuncRegistry
from ..ebpf.progs import runnable_registry, salted_count_min_kfunc

#: App names, in Fig. 7 order: the one list every caller iterates.
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
        self.conns = BlockedCuckooTable(CONN_BUCKETS, CONN_SLOTS)
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
        alive = self.alive
        owners = maglev_fill([self._perm(real) for real in alive], CH_RING_SIZE)
        self.ring[:] = [alive[i] for i in owners]

    def fail_real(self, real: int) -> Dict[str, int]:
        """Control-plane backend failure: drop ``real`` from the alive
        set, repack the ring, and evict every connection pinned to it
        (those flows re-pick through the ring on their next packet).

        Returns a disruption report: ``moved`` counts ring slots that
        changed owner *among slots that did not point at the failed
        real* — Maglev's disruption metric — and ``evicted`` the
        connection-table entries flushed.  Failing a real that is not
        alive, or the last alive one, raises ``ValueError`` and leaves
        ``alive``, ``ring`` and ``conns`` as they were.
        """
        if real not in self.alive:
            raise ValueError(f"real {real} is not alive")
        if len(self.alive) == 1:
            raise ValueError("cannot fail the last alive real")
        before = list(self.ring)
        self.alive.remove(real)
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
        if n_reals <= 0:
            raise ValueError("n_reals must be positive")
        self.seed = seed
        self.n_reals = n_reals
        self.rake_levels: List[List[int]] = [
            [0] * RAKE_WIDTH for _ in range(RAKE_LEVELS)
        ]
        self.fdb: Dict[int, int] = {}
        self.learn_filter: List[int] = [0] * PCN_FILTER_BITS
        #: The sketch suite's count-min, salted rows like the bundled
        #: ``enetstl_cm_update``.
        self.sketch = CountMinSketch(SK_ROWS, SK_WIDTH, hash=salted_hash32)
        self.univ_rows: List[List[int]] = [
            [0] * SK_WIDTH for _ in range(SK_UNIV_LEVELS)
        ]
        self.heap = TopKHeap(SK_HEAP_CAPACITY)

    @functools.cached_property
    def katran(self) -> KatranState:
        """Built on first use: its connection table and Maglev ring are
        the costliest state, and only the Katran chain touches them."""
        return KatranState(n_reals=self.n_reals, seed=self.seed)


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

    - *Expression inlining* for table reads, counters and unrollable
      sketch updates (``enetstl_ch_pick``, ``enetstl_lb_stats``,
      ``enetstl_sketch_cnt``, ``enetstl_rake_update``): geometry and
      salts become literals, state lists become bound closure
      constants.  ``ch_pick`` and ``lb_stats`` bind the **mutable**
      ring and stats lists — not frozen copies — so control-plane
      repacks reach fused code.
    - *Bound-closure inlining* for operations whose body is a real
      library algorithm (cuckoo lookup/insert, heap offer): the spec
      binds the live structure's own method (Katran's connection
      table) or the same plain-Python closure the impl calls,
      collapsing the per-call VM overhead (argument marshalling, r1-r5
      clobber bookkeeping) while keeping one source of truth for the
      data structure's behaviour.

    Either flavour reads a packet-pure argument's ``fast_hash32`` from
    the fuser's per-batch hash prologue when ``hashed`` offers it
    (RakeLimit's four levels, the learn filter's two, the universal
    sample's two); the learn and sample closures take the hashes as
    arguments, and their scalar impls hash and call the same body.
    """
    reg = runnable_registry(seed)
    state = AppState(seed=seed, n_reals=n_reals)

    # -- katran ---------------------------------------------------------

    def _conn_lookup(key: int) -> int:
        real = state.katran.conns.lookup(key)
        return 0 if real is None else real + 1

    def _conn_insert(key: int, real: int) -> int:
        return 1 if state.katran.conns.insert(key, real) else 0

    def _lb_stats(real: int) -> int:
        s = state.katran.stats
        idx = real % n_reals
        s[idx] += 1
        return s[idx]

    def conn_lookup(vm, key):
        return _conn_lookup(key)

    def conn_insert(vm, key, real):
        return _conn_insert(key, real)

    def ch_pick(vm, flow_hash):
        return state.katran.ring[flow_hash % CH_RING_SIZE]

    def lb_stats(vm, real):
        return _lb_stats(real)

    def _inline_conn_lookup(args, bind, hashed):
        # The live table's own lookup: one frame per packet, and a miss
        # leaves its hashes for the conn_insert that follows.
        fn = bind("kcl", state.katran.conns.lookup)
        return [f"_res = {fn}({args[0]})"], "0 if _res is None else _res + 1"

    conn_lookup._fuse_inline = _inline_conn_lookup

    def _inline_conn_insert(args, bind, hashed):
        # ``insert`` returns a bool, which ``& MASK64`` turns into 1/0.
        fn = bind("kci", state.katran.conns.insert)
        return [], f"{fn}({args[0]}, {args[1]})"

    conn_insert._fuse_inline = _inline_conn_insert

    def _inline_ch_pick(args, bind, hashed):
        # The live ring list (not a copy): one modulo + one list index
        # per new flow, and fail_real()'s in-place repack is visible to
        # every already-fused closure.
        ring = bind("kring", state.katran.ring)
        return [], f"{ring}[{args[0]} % {CH_RING_SIZE}]"

    ch_pick._fuse_inline = _inline_ch_pick

    def _inline_lb_stats(args, bind, hashed):
        # The live stats list, bumped in place like ``_lb_stats``.
        s = bind("kst", state.katran.stats)
        slot = f"{s}[{args[0]} % {n_reals}]"
        return [f"{slot} += 1"], slot

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

    univ_rows = state.univ_rows
    heap = state.heap
    sketch_cnt = salted_count_min_kfunc(state.sketch, "skr")

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

    def hh_offer(vm, key, est):
        return _hh_offer(key, est)

    def univ_sample(vm, key):
        return _univ_sample(key)

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


# ---------------------------------------------------------------------------
# NF wiring: single-core chains and multi-core factories
# ---------------------------------------------------------------------------

def app_nf(
    app: str,
    rt=None,
    backend: str = "fused",
    seed: int = 0,
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
        seed=seed,
        backend=backend,
    )


def app_nf_factory(
    app: str,
    backend: str = "fused",
    registry_seed: int = 0,
) -> Callable[[int], object]:
    """An ``nf_factory`` for :class:`~repro.net.multicore.RssDispatcher`
    running one app's fused or interpreted chain on every core, each
    with a private :func:`ir_registry` (seed-decorrelated per core,
    like the bundled-chain factory)."""
    from ..net.multicore import chain_nf_factory

    return chain_nf_factory(
        app_chain(app),
        backend=backend,
        registry_factory=lambda core: ir_registry(registry_seed + core),
    )


# ---------------------------------------------------------------------------
# Fig. 7: one chain, two builds
# ---------------------------------------------------------------------------

#: The builds Fig. 7 compares, in report order, with each build's
#: execution mode, which labels its runtime and prices its library
#: operations: the stock project on BPF helper calls and the eNetSTL
#: integration on kfuncs.
FIG7_BUILDS: Dict[str, ExecMode] = {
    "origin": ExecMode.PURE_EBPF,
    "enetstl": ExecMode.ENETSTL,
}

# Non-core work, charged identically in both builds.
KATRAN_PARSE = 60         # L4 options / ICMP / QUIC CID peeking
KATRAN_ENCAP = 90         # IPIP header push + checksum fixup
CH_RING_MATH = 30         # consistent-hash ring position (new flows)
RAKE_KEY_DERIVE = 6       # masking the 5-tuple down to one level key
RAKE_DECISION = 35        # budget comparison + EWMA bookkeeping
PCN_FORWARD_LOGIC = 140   # port state, VLAN tag, STP state, FDB aging
#: The sketch suite is a chain of tail-called programs (parse -> sketch
#: -> heavy-hitter -> export): tail calls, the secondary parse, the
#: flow-state LRU map and the epoch/export checks.
SK_PIPELINE_COMMON = 700
SK_HEAP_AMORTIZED = 12    # heavy-hitter heap offer

# Core work with no CostModel entry of its own.
STATS_PERCPU = 22         # percpu array counter bump (eNetSTL stats)
CUCKOO_KEY_VERIFY = 12    # full-key compare after a signature hit
CUCKOO_INSERT_WORK = 40   # slot choice + key/value write on insert
FILTER_BITS_SCALAR = 8    # learn-filter bit test/set, scalar hashes
FILTER_BITS_SIMD = 4      # the same after one hash_simd batch
UNIV_DRAW_CMP = 4         # compare the helper's u32 to the level bar
UNIV_COUNTDOWN = 2        # geometric random-pool countdown step

#: ``((cycles, category), ...)`` charged by one kfunc call.
Charges = Tuple[Tuple[int, Category], ...]


def fig7_charges(
    build: str, costs: CostModel
) -> Dict[str, Tuple[Charges, Charges]]:
    """Fig. 7's charge table: app kfunc -> (charges on every executed
    call, extra charges when the call returns nonzero).

    Library operations (row hashing and counting, the learn filter's
    hashes, the universal sample's hash, ``find_simd``) cost what
    :class:`~repro.core.kfunc.LibraryPrices` prices them at in the
    build's mode (:data:`FIG7_BUILDS`): software hashes for ``origin``,
    ``hash_simd``/``hw_hash_crc`` kfuncs for ``enetstl``.  What differs
    beyond that is the path: ``origin`` takes a full BPF hash-map
    lookup or update for every key-value access, one ``map_lookup`` per
    sketch map and a ``bpf_get_prandom_u32`` per universal-sketch
    sample; ``enetstl`` takes ``hw_hash_crc`` + ``find_simd`` over one
    blocked bucket, percpu lookups and a random-pool countdown.
    Non-core work rides on a kfunc each packet calls once, at the same
    cost in both builds.  The only result-dependent charge is the FDB
    update of a freshly learned MAC (``enetstl_fdb_learn`` returns 1);
    Katran's new-flow work sits on ``ch_pick``/``conn_insert``, which
    the chain calls only on a connection miss.
    """
    if build not in FIG7_BUILDS:
        raise ValueError(
            f"unknown build {build!r} (expected one of {tuple(FIG7_BUILDS)})"
        )
    c = costs
    lib = LibraryPrices(FIG7_BUILDS[build], costs)
    OTHER, BUCKETS, MULTIHASH = Category.OTHER, Category.BUCKETS, Category.MULTIHASH
    FRAMEWORK = Category.FRAMEWORK

    def rows(k: int) -> int:
        """Hash ``k`` sketch rows and bump one counter in each."""
        return lib.multi_hash(k) + c.counter_update * k

    if build == "origin":
        kv_lookup: Charges = ((c.bpf_hash_lookup_full, BUCKETS),)
        kv_update: Charges = ((c.bpf_hash_update_full, BUCKETS),)
        stats = c.map_update
        sketch_state = c.map_lookup
        filter_bits = FILTER_BITS_SCALAR
        univ_draw = c.prandom_helper + UNIV_DRAW_CMP
    else:
        kv_lookup = (
            (c.percpu_array_lookup + c.null_check, FRAMEWORK),
            (lib.crc(), MULTIHASH),
            (lib.find(CONN_SLOTS) + CUCKOO_KEY_VERIFY, BUCKETS),
        )
        # The hash call, then the insert call.
        kv_update = ((lib.crc() + lib.call + CUCKOO_INSERT_WORK, BUCKETS),)
        stats = STATS_PERCPU
        sketch_state = c.percpu_array_lookup + c.null_check
        filter_bits = FILTER_BITS_SIMD
        univ_draw = UNIV_COUNTDOWN
    # Each level's sketch lives in its own BPF map in both builds: only
    # the hashing + counting changed, so the per-level fetch stays.
    rake: Charges = (
        (lib.fetch * RAKE_LEVELS, FRAMEWORK),
        (rows(RAKE_LEVELS), MULTIHASH),
    )
    learn: Charges = (
        (lib.multi_hash(2), MULTIHASH),
        (filter_bits, Category.BITOPS),
    )
    sketch: Charges = ((sketch_state, FRAMEWORK), (rows(SK_ROWS), MULTIHASH))
    univ: Charges = (
        (univ_draw, Category.RANDOM),
        (lib.crc() + c.counter_update, MULTIHASH),
    )
    return {
        "enetstl_conn_lookup": (((KATRAN_PARSE, Category.PARSE),) + kv_lookup, ()),
        "enetstl_ch_pick": (((CH_RING_MATH, OTHER),), ()),
        "enetstl_conn_insert": (kv_update, ()),
        "enetstl_lb_stats": (((stats + KATRAN_ENCAP, OTHER),), ()),
        "enetstl_rake_update": (
            rake + ((RAKE_KEY_DERIVE * RAKE_LEVELS + RAKE_DECISION, OTHER),),
            (),
        ),
        "enetstl_fdb_learn": (learn, kv_update),
        "enetstl_fdb_lookup": (kv_lookup + ((PCN_FORWARD_LOGIC, OTHER),), ()),
        "enetstl_sketch_cnt": (sketch + ((SK_PIPELINE_COMMON, OTHER),), ()),
        "enetstl_hh_offer": (
            ((SK_HEAP_AMORTIZED, Category.FUNDAMENTAL_DS),), ()
        ),
        "enetstl_univ_sample": (univ, ()),
    }


def _charging(impl: Callable, charge: Callable, always: Charges,
              if_nonzero: Charges) -> Callable:
    """``impl`` plus its Fig. 7 charges.  No ``_fuse_inline`` spec, so
    the interpreter and fused code both call it once per ``Call``."""

    def call(vm, *args):
        result = impl(vm, *args)
        for cycles, category in always:
            charge(cycles, category)
        if result:
            for cycles, category in if_nonzero:
                charge(cycles, category)
        return result

    return call


def fig7_nfs(app: str, seed: int = 0, backend: str = "fused") -> Dict[str, object]:
    """Both Fig. 7 builds of one app, keyed like :data:`FIG7_BUILDS`.

    Each build is an :class:`~repro.net.irnf.IrChainNf` on a fresh
    runtime whose :func:`ir_registry` kfuncs also charge
    :func:`fig7_charges`; ``nf.registry.app_state`` holds its
    structures.  The builds share the app's chain, verified once:
    charging changes no kfunc's metadata.
    """
    from ..ebpf.runtime import BpfRuntime
    from ..ebpf.verifier import Verifier
    from ..net.irnf import IrChainNf

    verified = None
    nfs: Dict[str, object] = {}
    for build, mode in FIG7_BUILDS.items():
        rt = BpfRuntime(mode=mode, seed=seed)
        table = fig7_charges(build, rt.costs)
        base = ir_registry(seed)
        registry = KfuncRegistry()
        for meta in base:
            if meta.name in table:
                meta = dataclasses.replace(
                    meta, impl=_charging(meta.impl, rt.charge, *table[meta.name])
                )
            registry.register(meta)
        registry.app_state = base.app_state
        if verified is None:
            verifier = Verifier(registry)
            verified = [verifier.verify(prog) for prog in app_chain(app)]
        nfs[build] = IrChainNf(
            rt, verified, registry=registry, seed=seed, backend=backend
        )
    return nfs
