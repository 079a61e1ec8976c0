"""Cycle-cost model for the simulated eBPF / kernel / eNetSTL stacks.

The paper's performance results all derive from *operation-count and
operation-cost asymmetries* between three execution environments:

- ``PURE_EBPF``: programs pay helper-call overhead for every map access,
  compute hashes one at a time in scalar code, walk buckets with scalar
  compares, take spin locks around linked-list operations, and call the
  ``bpf_get_prandom_u32`` helper for every random draw.
- ``KERNEL``: an in-kernel C/asm implementation with direct calls, SIMD
  hash/compare batches, hardware CRC and FFS/POPCNT instructions, percpu
  data (no locks) and inline random-pool draws.
- ``ENETSTL``: the kernel implementation exposed to eBPF through kfuncs;
  it pays a small per-call kfunc overhead plus the verifier-mandated
  NULL checks on returned pointers, but otherwise runs kernel-speed code.

Costs are expressed in CPU cycles on the paper's testbed clock
(2.2 GHz Xeon E5-2630 v4).  Absolute values are calibrated so that the
*ratios* reported in the paper's evaluation land in band (see
EXPERIMENTS.md); they are not microarchitecturally exact.

Throughput is derived as ``PPS = CPU_HZ / cycles_per_packet`` and
latency as ``base_wire_latency + cycles_per_packet / CPU_HZ``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Iterator, Optional, Tuple

#: Clock rate of the simulated CPU (paper testbed: Xeon E5-2630 v4 @2.2GHz).
CPU_HZ = 2_200_000_000


class ExecMode(enum.Enum):
    """The three execution environments compared throughout the paper."""

    PURE_EBPF = "ebpf"
    KERNEL = "kernel"
    ENETSTL = "enetstl"

    @property
    def label(self) -> str:
        return {"ebpf": "eBPF", "kernel": "Kernel", "enetstl": "eNetSTL"}[self.value]


class Category(enum.Enum):
    """Cost attribution buckets.

    ``O1``-``O6`` mirror the six shared behaviors of §3 and drive the
    Fig. 1 breakdown; the remaining buckets cover framework overhead.
    """

    BITOPS = "O1: hardware bit instructions"
    MULTIHASH = "O2: multiple hash functions"
    FUNDAMENTAL_DS = "O3: fundamental data structures"
    RANDOM = "O4: random-number updating"
    NONCONTIG = "O5: non-contiguous memory"
    BUCKETS = "O6: multiple buckets in contiguous memory"
    PARSE = "packet parsing"
    FRAMEWORK = "framework dispatch"
    OTHER = "other NF logic"

    # Members are singletons compared by identity, so the C-level
    # identity hash keys dicts exactly like Enum's Python-level
    # name hash -- without a Python frame on every charge.
    __hash__ = object.__hash__


#: The observation categories (O1..O6) in paper order, for Fig. 1.
OBSERVATION_CATEGORIES: Tuple[Category, ...] = (
    Category.BITOPS,
    Category.MULTIHASH,
    Category.FUNDAMENTAL_DS,
    Category.RANDOM,
    Category.NONCONTIG,
    Category.BUCKETS,
)


@dataclass(frozen=True)
class CostModel:
    """Named per-operation cycle costs.

    Grouped by mechanism.  A single instance is shared by all simulated
    components; tests may ``replace()`` individual entries to explore
    sensitivity (the ablation benches do exactly that).
    """

    # -- framework -----------------------------------------------------
    packet_parse: int = 45          # eth/ip/udp header parse + 5-tuple fetch
    xdp_dispatch: int = 55          # driver poll + XDP program entry/exit
    helper_call: int = 22           # generic BPF helper call overhead
    kfunc_call: int = 7             # direct (JIT-ed) call into module code
    kernel_call: int = 3            # plain function call inside kernel code
    null_check: int = 2             # verifier-mandated NULL check
    bounds_check: int = 3           # verifier-mandated bounds re-check
    div_check: int = 2              # runtime divisor != 0 test
    insn_exec: int = 1              # one interpreted IR instruction
    mem_copy_per_16b: int = 4       # memcpy cost per 16-byte chunk

    # -- BPF maps ------------------------------------------------------
    map_lookup: int = 38            # bpf_map_lookup_elem (hash+call)
    map_update: int = 55            # bpf_map_update_elem
    map_delete: int = 50
    #: Full-path hash-map access keyed by a 5-tuple: helper call +
    #: in-kernel jhash + bucket chain walk + value copy-out (the stock
    #: "Origin" builds of the Fig. 7 apps charge these).
    bpf_hash_lookup_full: int = 110
    bpf_hash_update_full: int = 130
    percpu_array_lookup: int = 18   # cheap direct-index percpu lookup
    spin_lock: int = 15             # bpf_spin_lock (one acquire)
    spin_unlock: int = 13
    bpf_list_op: int = 24           # bpf_list_push/pop op itself
    bpf_obj_alloc: int = 70         # bpf_obj_new
    bpf_obj_free: int = 45

    # -- hashing -------------------------------------------------------
    hash_scalar: int = 68           # one software xxhash over a 5-tuple key
    #: SIMD multi-hash: one fixed setup plus a per-lane cost (lanes run
    #: in parallel but loads/mixing still scale with the lane count).
    hash_simd_setup: int = 14
    hash_simd_lane: int = 28
    hash_crc_hw: int = 24           # hardware CRC32C hash of a 13B key
    simd_load: int = 9              # 256-bit register load from memory
    simd_store: int = 12            # 256-bit register store to memory

    # -- compare / reduce over buckets ----------------------------------
    slot_mem_read: int = 15         # DRAM/LLC cost per occupied slot touched
    cmp_scalar_per_item: int = 7    # one key/signature compare + branch
    cmp_simd_batch: int = 12        # compare 8 lanes + movemask
    reduce_scalar_per_item: int = 6
    reduce_simd_batch: int = 11

    # -- bit manipulation ------------------------------------------------
    ffs_soft: int = 19              # software find-first-set on a u64
    ffs_hw: int = 3                 # TZCNT/BSF
    popcnt_soft: int = 14
    popcnt_hw: int = 3

    # -- random numbers ---------------------------------------------------
    prandom_helper: int = 105        # bpf_get_prandom_u32 (helper + PRNG)
    rpool_draw: int = 10            # pop from pre-filled random pool
    geo_rpool_draw: int = 10         # geometric-distributed pool draw
    rpool_refill_per_item: int = 11  # amortized background reinjection

    # -- memory wrapper / non-contiguous memory ---------------------------
    node_read: int = 120            # DRAM pointer-chase read of a list node
    get_next_kernel: int = 4        # raw pointer dereference (kernel)
    get_next_kfunc: int = 8         # kfunc + refcount inc (eNetSTL)
    eager_check: int = 22           # hash-table validity probe (ablation)
    node_connect: int = 16          # record relationship in proxy (eNetSTL)
    node_disconnect: int = 12
    node_release: int = 13          # refcount dec + lazy edge teardown
    node_alloc: int = 62            # kmalloc + proxy bookkeeping
    node_connect_kernel: int = 6    # raw pointer store + backref (kernel)
    node_disconnect_kernel: int = 5
    node_release_kernel: int = 6
    kmalloc: int = 46               # raw kernel allocation (kernel variant)
    kfree: int = 30

    # -- list-buckets -------------------------------------------------------
    lb_insert: int = 14             # percpu bucket-queue insert (one kfunc arg path)
    lb_pop: int = 13
    counter_update: int = 4         # single in-memory counter bump

    def named(self) -> Dict[str, int]:
        """All cost entries as a name -> cycles mapping."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def scaled(self, **overrides: int) -> "CostModel":
        """A copy with selected entries replaced (for ablations)."""
        return replace(self, **overrides)


#: Default, calibrated cost model used across the library.
DEFAULT_COSTS = CostModel()


@dataclass(frozen=True)
class NumaTopology:
    """Cross-node memory penalties for multi-socket shard layouts.

    The paper's testbed is a single socket; scaling the multi-queue
    data plane past one socket changes the cost picture: the NIC DMAs
    packet buffers into its local node's memory, so a core on the
    *other* node pays a remote-DRAM access on every packet touch
    (QPI/UPI hop: ~1.5-2x local DRAM latency on 2-socket Xeons).  The
    model charges a flat per-packet penalty to every core whose node
    differs from the NIC's — deliberately per packet, not per map op,
    because NF *state* stays node-local under flow-affinity sharding;
    only the packet buffer crosses sockets.

    Cores map to nodes in contiguous blocks (cores ``0..n/2-1`` on
    node 0, etc.), matching how Linux enumerates them; an
    ``interleave`` layout (core ``i`` on node ``i % n_nodes``) models
    the worst-case scattered pinning.
    """

    n_nodes: int = 2
    nic_node: int = 0
    #: Extra cycles per packet processed on a non-NIC node: one remote
    #: DRAM fetch of the packet's hot cacheline(s) over the socket
    #: interconnect, net of the local-access cost already in the model.
    remote_packet_cycles: int = 60
    interleave: bool = False

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        if not 0 <= self.nic_node < self.n_nodes:
            raise ValueError("nic_node must name an existing node")
        if self.remote_packet_cycles < 0:
            raise ValueError("remote_packet_cycles must be non-negative")

    def node_of(self, core: int, n_cores: int) -> int:
        """The NUMA node ``core`` lives on in an ``n_cores`` fleet."""
        if not 0 <= core < n_cores:
            raise ValueError(f"core {core} out of range for {n_cores} cores")
        if self.n_nodes == 1:
            return 0
        if self.interleave:
            return core % self.n_nodes
        return min(core * self.n_nodes // n_cores, self.n_nodes - 1)

    def packet_penalty_cycles(self, core: int, n_cores: int) -> int:
        """Per-packet extra cycles ``core`` pays for remote DMA buffers."""
        if self.node_of(core, n_cores) == self.nic_node:
            return 0
        return self.remote_packet_cycles


class Cycles:
    """A cycle counter with per-category attribution.

    One counter typically lives per pipeline run; NF implementations
    charge it as they execute.  ``breakdown`` feeds the Fig. 1
    behavior-share analysis.
    """

    __slots__ = ("total", "_by_category")

    def __init__(self) -> None:
        self.total: int = 0
        self._by_category: Dict[Category, int] = {}

    def charge(self, cycles: int, category: Category = Category.OTHER) -> None:
        """Add ``cycles`` to the running total under ``category``."""
        if cycles < 0:
            raise ValueError(f"negative cycle charge: {cycles}")
        self.total += cycles
        by = self._by_category
        by[category] = by.get(category, 0) + cycles

    def breakdown(self) -> Dict[Category, int]:
        """Category -> cycles charged so far (copy)."""
        return dict(self._by_category)

    def share(self, *categories: Category) -> float:
        """Fraction of total cycles attributed to ``categories``."""
        if self.total == 0:
            return 0.0
        selected = sum(self._by_category.get(c, 0) for c in categories)
        return selected / self.total

    def reset(self) -> None:
        self.total = 0
        self._by_category.clear()

    def snapshot(self) -> "CycleSnapshot":
        return CycleSnapshot(total=self.total, by_category=dict(self._by_category))

    def checkpoint(self) -> Tuple[int, Dict[Category, int]]:
        """Cheap state capture: a plain ``(total, by_category)`` tuple.

        Hot paths (the XDP replay loops) pair this with
        :meth:`delta_since` instead of allocating two
        :class:`CycleSnapshot` objects plus an intermediate delta.
        """
        return self.total, dict(self._by_category)

    def delta_since(self, checkpoint: Tuple[int, Dict[Category, int]]) -> "CycleSnapshot":
        """Cycles charged since a :meth:`checkpoint`, as one snapshot."""
        total0, by0 = checkpoint
        by_cat = {}
        for cat, cyc in self._by_category.items():
            d = cyc - by0.get(cat, 0)
            if d:
                by_cat[cat] = d
        return CycleSnapshot(total=self.total - total0, by_category=by_cat)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Cycles(total={self.total})"


@dataclass(frozen=True)
class CycleSnapshot:
    """Immutable copy of a counter's state, for before/after deltas."""

    total: int
    by_category: Dict[Category, int] = field(default_factory=dict)

    def delta(self, later: "CycleSnapshot") -> "CycleSnapshot":
        by_cat = {}
        for cat, cyc in later.by_category.items():
            d = cyc - self.by_category.get(cat, 0)
            if d:
                by_cat[cat] = d
        return CycleSnapshot(total=later.total - self.total, by_category=by_cat)


def throughput_pps(cycles_per_packet: float, cpu_hz: int = CPU_HZ) -> float:
    """Single-core packet rate for a given per-packet cycle cost."""
    if cycles_per_packet <= 0:
        raise ValueError("cycles_per_packet must be positive")
    return cpu_hz / cycles_per_packet


def processing_time_ns(cycles_per_packet: float, cpu_hz: int = CPU_HZ) -> float:
    """Per-packet processing time in nanoseconds."""
    return cycles_per_packet / cpu_hz * 1e9


def improvement(baseline_cycles: float, optimized_cycles: float) -> float:
    """Relative throughput improvement of optimized over baseline.

    Defined on throughput (the paper reports PPS ratios), so
    ``improvement = baseline_cycles / optimized_cycles - 1``.
    """
    if optimized_cycles <= 0 or baseline_cycles <= 0:
        raise ValueError("cycle counts must be positive")
    return baseline_cycles / optimized_cycles - 1.0


def gap(reference_cycles: float, measured_cycles: float) -> float:
    """Relative throughput shortfall of measured vs a faster reference.

    ``gap = 1 - ref_cycles/measured_cycles`` — e.g. eNetSTL's gap to
    the in-kernel implementation (positive when measured is slower).
    """
    if measured_cycles <= 0 or reference_cycles <= 0:
        raise ValueError("cycle counts must be positive")
    return 1.0 - reference_cycles / measured_cycles


def simd_batches(n_items: int, lane_width: int = 8) -> int:
    """Number of SIMD batches needed to cover ``n_items`` lanes."""
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    return (n_items + lane_width - 1) // lane_width


def iter_modes() -> Iterator[ExecMode]:
    yield from ExecMode
