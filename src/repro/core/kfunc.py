"""eNetSTL's kfunc surface: every library API with verifier metadata.

The library is exposed to eBPF as kfuncs; safety of the *interaction*
(§4.4) rests on the metadata registered here — acquire/release pairing
for the memory wrapper and data-structure instances, maybe-NULL returns
forcing null checks, constant-argument annotations for sizes.

:func:`enetstl_registry` returns a :class:`KfuncRegistry` preloaded
with the baseline helpers plus the full eNetSTL API; the verifier tests
validate example programs (including the paper's Listing 3) against it.

:class:`LibraryPrices` is the library's price list: what each operation
costs in each execution mode.  The library classes charge it, and every
NF or Fig. 7 build that folds a library operation into a larger charge
reads it there.
"""

from __future__ import annotations

from ..ebpf.cost_model import CostModel, ExecMode, simd_batches
from ..ebpf.kfunc_meta import (
    ARG_CONST,
    ARG_KPTR,
    ARG_PTR,
    ARG_SCALAR,
    KF_ACQUIRE,
    KF_RELEASE,
    KF_RET_NULL,
    KfuncRegistry,
    RET_KPTR,
    RET_SCALAR,
    RET_VOID,
    default_registry,
)

#: Program types eNetSTL kfuncs are exposed to (XDP and TC datapaths).
NF_PROG_TYPES = ("xdp", "tc")


def enetstl_registry() -> KfuncRegistry:
    """Baseline helpers + the complete eNetSTL kfunc API."""
    reg = default_registry()

    # -- memory wrapper (§4.2) -----------------------------------------
    reg.define(
        "node_alloc",
        args=(ARG_CONST, ARG_CONST, ARG_CONST),  # n_outs, n_ins, data size
        ret=RET_KPTR,
        flags=(KF_ACQUIRE, KF_RET_NULL),
        prog_types=NF_PROG_TYPES,
    )
    reg.define(
        "set_owner",
        args=(ARG_PTR, ARG_KPTR),  # proxy (map value), node
        ret=RET_VOID,
        prog_types=NF_PROG_TYPES,
    )
    reg.define(
        "unset_owner",
        args=(ARG_PTR, ARG_KPTR),
        ret=RET_VOID,
        prog_types=NF_PROG_TYPES,
    )
    reg.define(
        "node_connect",
        args=(ARG_KPTR, ARG_CONST, ARG_KPTR, ARG_CONST),
        ret=RET_VOID,
        prog_types=NF_PROG_TYPES,
    )
    reg.define(
        "node_disconnect",
        args=(ARG_KPTR, ARG_CONST),
        ret=RET_VOID,
        prog_types=NF_PROG_TYPES,
    )
    reg.define(
        "get_next",
        args=(ARG_KPTR, ARG_CONST),
        ret=RET_KPTR,
        flags=(KF_ACQUIRE, KF_RET_NULL),
        prog_types=NF_PROG_TYPES,
    )
    reg.define(
        "node_release",
        args=(ARG_KPTR,),
        ret=RET_VOID,
        flags=(KF_RELEASE,),
        prog_types=NF_PROG_TYPES,
    )
    reg.define(
        "node_write",
        args=(ARG_KPTR, ARG_CONST, ARG_PTR, ARG_CONST),
        ret=RET_VOID,
        prog_types=NF_PROG_TYPES,
    )
    reg.define(
        "node_read",
        args=(ARG_KPTR, ARG_CONST, ARG_PTR, ARG_CONST),
        ret=RET_VOID,
        prog_types=NF_PROG_TYPES,
    )

    # -- bit-manipulation algorithms --------------------------------------
    reg.define("bpf_ffs64", args=(ARG_SCALAR,), prog_types=NF_PROG_TYPES)
    reg.define("bpf_fls64", args=(ARG_SCALAR,), prog_types=NF_PROG_TYPES)
    reg.define("bpf_popcnt64", args=(ARG_SCALAR,), prog_types=NF_PROG_TYPES)

    # -- parallel compare / reduce -----------------------------------------
    reg.define(
        "find_simd",
        args=(ARG_PTR, ARG_CONST, ARG_SCALAR),  # arr, len, key
        prog_types=NF_PROG_TYPES,
    )
    reg.define(
        "reduce_min_simd", args=(ARG_PTR, ARG_CONST), prog_types=NF_PROG_TYPES
    )
    reg.define(
        "reduce_max_simd", args=(ARG_PTR, ARG_CONST), prog_types=NF_PROG_TYPES
    )

    # -- hashing + unified post-hash operations --------------------------------
    reg.define(
        "hw_hash_crc", args=(ARG_PTR, ARG_CONST, ARG_SCALAR), prog_types=NF_PROG_TYPES
    )
    reg.define(
        "hash_simd_cnt",
        args=(ARG_PTR, ARG_CONST, ARG_PTR, ARG_CONST, ARG_SCALAR),
        ret=RET_VOID,
        prog_types=NF_PROG_TYPES,
    )
    reg.define(
        "hash_simd_min_read",
        args=(ARG_PTR, ARG_CONST, ARG_PTR, ARG_CONST),
        prog_types=NF_PROG_TYPES,
    )
    reg.define(
        "hash_simd_setbits",
        args=(ARG_PTR, ARG_CONST, ARG_PTR, ARG_CONST),
        ret=RET_VOID,
        prog_types=NF_PROG_TYPES,
    )
    reg.define(
        "hash_simd_cmp",
        args=(ARG_PTR, ARG_CONST, ARG_PTR, ARG_CONST, ARG_SCALAR),
        prog_types=NF_PROG_TYPES,
    )

    # -- list-buckets --------------------------------------------------------
    reg.define(
        "bktlist_alloc",
        args=(ARG_CONST,),
        ret=RET_KPTR,
        flags=(KF_ACQUIRE, KF_RET_NULL),
        prog_types=NF_PROG_TYPES,
    )
    reg.define(
        "bktlist_destroy",
        args=(ARG_KPTR,),
        ret=RET_VOID,
        flags=(KF_RELEASE,),
        prog_types=NF_PROG_TYPES,
    )
    reg.define(
        "bktlist_insert_front",
        args=(ARG_KPTR, ARG_SCALAR, ARG_PTR, ARG_CONST),
        ret=RET_SCALAR,
        prog_types=NF_PROG_TYPES,
    )
    reg.define(
        "bktlist_pop_front",
        args=(ARG_KPTR, ARG_SCALAR, ARG_PTR, ARG_CONST),
        ret=RET_SCALAR,
        prog_types=NF_PROG_TYPES,
    )

    # -- random pools -----------------------------------------------------------
    reg.define(
        "rpool_alloc",
        args=(ARG_CONST,),
        ret=RET_KPTR,
        flags=(KF_ACQUIRE, KF_RET_NULL),
        prog_types=NF_PROG_TYPES,
    )
    reg.define(
        "rpool_destroy",
        args=(ARG_KPTR,),
        ret=RET_VOID,
        flags=(KF_RELEASE,),
        prog_types=NF_PROG_TYPES,
    )
    reg.define("rpool_draw", args=(ARG_KPTR,), prog_types=NF_PROG_TYPES)
    reg.define(
        "geo_rpool_alloc",
        args=(ARG_CONST, ARG_CONST),
        ret=RET_KPTR,
        flags=(KF_ACQUIRE, KF_RET_NULL),
        prog_types=NF_PROG_TYPES,
    )
    reg.define(
        "geo_rpool_destroy",
        args=(ARG_KPTR,),
        ret=RET_VOID,
        flags=(KF_RELEASE,),
        prog_types=NF_PROG_TYPES,
    )
    reg.define("geo_rpool_draw", args=(ARG_KPTR,), prog_types=NF_PROG_TYPES)

    return reg


# ---------------------------------------------------------------------------
# Price list: each library operation's cycles in one execution mode
# ---------------------------------------------------------------------------

#: Bit kfuncs are tiny leaf functions; the JIT emits them as direct
#: near-calls with no stack traffic, so the crossing is ~2 cycles.
LEAF_CALL_COST = 2


class LibraryPrices:
    """Cycles each eNetSTL library operation costs in one ``mode``.

    Resolved once from ``(mode, costs)``; neither changes after a
    runtime is built.  Pure eBPF has no library: its prices are the
    equivalent eBPF code (software hashes, scalar compare loops, the
    BPF list with its spin lock).  Two crossing rules apply:

    - ``call``, the library-call rule: a kfunc call in eNetSTL, a plain
      function call in the kernel, nothing in eBPF (it inlines its own
      code).  Hashing, compare/reduce and list-buckets pay it.
    - ``crossing``, eNetSTL only: the kernel inlines the operation.
      Random-pool draws and the low-level SIMD kfuncs pay it.

    The memory wrapper's ``node_*`` prices have no eBPF column: pure
    eBPF cannot build the wrapper's structures at all (P1), and
    :class:`~repro.core.memwrap.MemoryWrapper` refuses that mode.
    """

    __slots__ = (
        "costs", "call", "crossing", "fetch", "row_hash", "ffs", "popcnt",
        "lb_insert", "lb_pop", "lb_empty", "node_alloc", "node_connect",
        "node_disconnect", "node_release", "node_free", "_get_next",
        "_eager", "_ebpf",
    )

    def __init__(self, mode: ExecMode, costs: CostModel) -> None:
        c = costs
        ebpf = mode is ExecMode.PURE_EBPF
        enetstl = mode is ExecMode.ENETSTL
        self.costs = c
        self._ebpf = ebpf
        self.call = c.kfunc_call if enetstl else 0 if ebpf else c.kernel_call
        self.crossing = c.kfunc_call if enetstl else 0
        #: The NF's state: a map lookup, plus the verifier's NULL check
        #: on the kptr eNetSTL returns.
        self.fetch = c.map_lookup + (c.null_check if enetstl else 0)
        #: One hash value, no call: software in eBPF, hardware CRC else.
        self.row_hash = c.hash_scalar if ebpf else c.hash_crc_hw
        leaf = LEAF_CALL_COST if enetstl else 0
        self.ffs = c.ffs_soft if ebpf else c.ffs_hw + leaf
        self.popcnt = c.popcnt_soft if ebpf else c.popcnt_hw + leaf
        # eBPF selects the bucket's list through an array-map lookup and
        # couples the mutation to a spin lock (§4.3).
        bpf_list = (
            c.percpu_array_lookup + c.spin_lock + c.bpf_list_op + c.spin_unlock
        )
        self.lb_insert = bpf_list if ebpf else c.lb_insert + self.call
        self.lb_pop = bpf_list if ebpf else c.lb_pop + self.call
        #: An empty bucket: eBPF tests the head pointer in the fetched
        #: map value, eNetSTL/kernel the occupancy bitmap bit.
        self.lb_empty = 4 if ebpf else 1
        # The memory wrapper (§4.2): the kernel pays raw allocator and
        # pointer costs, eNetSTL its kfuncs' bookkeeping.
        kernel = mode is ExecMode.KERNEL
        self.node_alloc = c.kmalloc if kernel else c.node_alloc
        self.node_connect = c.node_connect_kernel if kernel else c.node_connect
        self.node_disconnect = (
            c.node_disconnect_kernel if kernel else c.node_disconnect
        )
        self.node_release = c.node_release_kernel if kernel else c.node_release
        #: The final free, before one ``node_disconnect`` per in-edge.
        self.node_free = c.kfree if kernel else c.bpf_obj_free
        self._get_next = (
            c.get_next_kernel + c.node_read
            if kernel
            else c.get_next_kfunc + c.node_read + c.null_check
        )
        self._eager = c.eager_check

    def get_next(self, eager: bool = False) -> int:
        """One ``get_next`` step: the pointer chase, plus the validity
        probe when ``eager`` checking replaces lazy checking (§6.2)."""
        return self._get_next + (self._eager if eager else 0)

    def node_copy(self, size: int) -> int:
        """``node_read``/``node_write`` of ``size`` bytes: one library
        call plus the copy per 16-byte chunk.  ``set_owner`` and
        ``unset_owner`` pay ``call`` alone."""
        return self.call + self.costs.mem_copy_per_16b * ((size + 15) // 16)

    def crc(self, k: int = 1) -> int:
        """``hw_hash_crc``: ``k`` hash values behind one call."""
        return self.row_hash * k + self.call

    def simd_hash(self, k: int) -> int:
        """One SIMD batch computing ``k`` hashes, before any call."""
        c = self.costs
        return c.hash_simd_setup + c.hash_simd_lane * k

    def multi_hash(self, k: int) -> int:
        """The unified ``hash_simd_*`` kfuncs: ``k`` hashes in one SIMD
        batch (``k`` software hashes in eBPF)."""
        if self._ebpf:
            return self.row_hash * k
        return self.simd_hash(k) + self.call

    def hash_op(self, k: int, hit: bool = True) -> int:
        """A unified hash-then-operate kfunc (``hash_simd_cnt``,
        ``_setbits``, ``_testbits``, ``_cmp``): the ``k`` hashes, then a
        counter, bit or slot access per hash.  A ``_testbits`` miss
        makes one access: the walk stops at the first clear bit."""
        return self.multi_hash(k) + self.costs.counter_update * (k if hit else 1)

    def _batched(self, n: int, batch: int, scalar: int, fused: bool) -> int:
        if self._ebpf:
            return scalar * max(n, 1)
        call = 0 if fused else self.call
        return (self.costs.simd_load + batch) * max(simd_batches(n), 1) + call

    def find(self, n: int, fused: bool = False) -> int:
        """``find_simd`` over ``n`` slots: one SIMD load + compare per
        batch of lanes (a scalar compare per slot in eBPF).  ``fused``
        marks a call made from inside a larger kfunc: no call cost."""
        c = self.costs
        return self._batched(n, c.cmp_simd_batch, c.cmp_scalar_per_item, fused)

    def reduce(self, n: int, fused: bool = False) -> int:
        """``reduce_min/max_simd`` over ``n`` slots."""
        c = self.costs
        return self._batched(
            n, c.reduce_simd_batch, c.reduce_scalar_per_item, fused
        )

    def pool_draw(self, n: int = 1) -> int:
        """``n`` random-pool draws through one crossing (no eBPF price:
        eBPF has no pool and calls ``bpf_get_prandom_u32`` per draw)."""
        return self.costs.rpool_draw * n + self.crossing

    def geo_draw(self, n: int = 1) -> int:
        """``n`` geometric skip counts through one crossing."""
        return self.costs.geo_rpool_draw * n + self.crossing
