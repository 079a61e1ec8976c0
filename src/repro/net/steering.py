"""Skew-aware receive steering: RSS, hash re-keying, ntuple pinning.

Plain RSS balances *flows*, not *packets*: on Zipf-skewed traffic the
heavy-hitter flows pin to single queues and the busiest core gates the
fleet (PR 1 measured a 1.87 load-imbalance factor at 8 cores).  Real
NICs expose two levers against that skew, both modeled here as
pluggable policies for :class:`repro.net.multicore.RssDispatcher`:

- :class:`RssSteering` — the baseline: Toeplitz-style hash of the
  5-tuple, modulo the queue count.
- :class:`RekeySteering` — rewrite the RSS key: a deterministic search
  over candidate hash seeds on a sampled trace prefix picks the seed
  with the lowest packet-weighted imbalance.  Models ``ethtool -X``'s
  configurable RSS key; helps when heavy flows merely *collide*, but
  cannot split one dominant flow.
- :class:`NtupleSteering` — ntuple/flow-director rules: the top-k
  heavy-hitter flows seen in the sampled prefix are pinned to explicit
  queues by longest-processing-time-first assignment (heaviest flow to
  the least-loaded queue, on top of the RSS load of the residual
  traffic); everything unmatched falls through to RSS.  Models
  ``ethtool -N ... action <queue>`` and is the only policy that can
  place the few dominant Zipf flows on dedicated queues.

Every policy preserves **flow affinity** (a flow's packets all reach
one queue — the invariant per-CPU NF state depends on), and steering
never changes *what* a core charges per packet, only *where* packets
go: total cycles across the fleet are identical across policies for
state-independent NFs (tested).

Policies that need a traffic sample declare ``sample_size``; the
dispatcher buffers exactly that many packets from the head of the
stream (bounded memory even on one-shot iterators), calls
:meth:`~SteeringPolicy.prepare`, then replays the prefix and the rest
of the stream through the chosen placement.

Every policy places a flow from its key and one hash of it
(:meth:`~SteeringPolicy.place`), so the fleet's arrival loops hash the
stream :data:`STEER_CHUNK` packets at a time in lanes
(:meth:`~SteeringPolicy.chunks`) and still read the placement live,
packet by packet: a repack reaches the very next packet.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.algorithms.hashing import fast_hash32, fast_hash32_lanes
from .packet import Packet

#: Seed of the simulated RSS (Toeplitz) hash.  Changing it re-shuffles
#: flow -> queue placement, like rewriting the NIC's RSS key.
RSS_HASH_SEED = 0x52535348

#: Default number of prefix packets sampled to fit a steering policy.
DEFAULT_SAMPLE_SIZE = 4096

#: Packets an arrival loop pulls from its stream, and hashes in lanes,
#: at a time.
STEER_CHUNK = 256


def _imbalance(loads: Sequence[int]) -> float:
    """max/mean load factor; 1.0 is perfectly balanced."""
    total = sum(loads)
    if not loads or total == 0:
        return 1.0
    return max(loads) * len(loads) / total


class SteeringPolicy:
    """Where each packet goes: the dispatcher's placement plug-in.

    Subclasses implement :meth:`place`; policies that learn from
    traffic set ``sample_size > 0`` and implement :meth:`prepare`,
    which the dispatcher calls once with the buffered stream prefix
    before any packet is replayed.
    """

    #: Short policy identifier (CLI / benchmark key).
    name = "abstract"
    #: Prefix packets the dispatcher should buffer for :meth:`prepare`.
    sample_size = 0
    #: Seed of the flow hash :meth:`place` is handed.
    hash_seed = RSS_HASH_SEED

    def __init__(self, n_cores: int) -> None:
        if n_cores <= 0:
            raise ValueError("n_cores must be positive")
        self.n_cores = n_cores

    def prepare(self, sample: Sequence[Packet]) -> None:
        """Fit the policy on a sampled trace prefix (optional)."""

    def place(self, key: int, h: int) -> int:
        """The queue of flow ``key``, whose ``fast_hash32`` under
        :attr:`hash_seed` is ``h``.  Reads the current placement, so a
        :meth:`repack` reaches the very next call."""
        raise NotImplementedError

    def queue_of(self, packet: Packet) -> int:
        key = packet.key_int
        return self.place(key, fast_hash32(key, self.hash_seed))

    def chunks(
        self, stream: Iterable[Packet]
    ) -> Iterator[Tuple[List[Packet], List[int], List[int]]]:
        """``stream`` in slices of :data:`STEER_CHUNK` packets, each
        with its packets' ``key_int`` and their hashes under
        :attr:`hash_seed`, computed in lanes: ``place(keys[i],
        hashes[i]) == queue_of(packets[i])`` for the placement current
        when it is called."""
        it = iter(stream)
        while True:
            packets = list(islice(it, STEER_CHUNK))
            if not packets:
                return
            keys = [pkt.key_int for pkt in packets]
            yield packets, keys, fast_hash32_lanes(keys, self.hash_seed)

    def repack(self, alive: Sequence[int]) -> bool:
        """Re-pack placement onto the surviving cores after a failure.

        Policies that own an explicit placement table rebuild it over
        ``alive`` — from then on :meth:`queue_of` only names live
        cores, so the fleet's hash-failover fallback never engages.
        Ntuple returns True; the SLO indirection table returns the
        number of buckets it moved.  Hash-only policies (plain RSS,
        rekey) have no table to rewrite and return False; the fleet
        keeps re-steering their dead-core traffic with the flow-affine
        failover hash.
        """
        return False

    def describe(self) -> Dict[str, object]:
        """Policy configuration + fitted state, for reports/benchmarks."""
        return {"policy": self.name, "n_cores": self.n_cores}


class RssSteering(SteeringPolicy):
    """Plain RSS: hash the 5-tuple, modulo the queue count (baseline)."""

    name = "rss"

    def __init__(self, n_cores: int, hash_seed: int = RSS_HASH_SEED) -> None:
        super().__init__(n_cores)
        self.hash_seed = hash_seed

    def place(self, key: int, h: int) -> int:
        return h % self.n_cores

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info["hash_seed"] = self.hash_seed
        return info


class RekeySteering(RssSteering):
    """Deterministic RSS-key search minimizing sampled imbalance.

    Candidate seeds are derived from ``base_seed`` (so the search is
    reproducible); each is scored by the packet-weighted imbalance it
    yields over the sampled prefix's flows, and the best seed steers
    the whole replay.  Ties break toward the earliest candidate, which
    keeps the baseline seed when nothing beats it.
    """

    name = "rekey"
    sample_size = DEFAULT_SAMPLE_SIZE

    def __init__(
        self,
        n_cores: int,
        base_seed: int = RSS_HASH_SEED,
        n_candidates: int = 32,
        sample_size: Optional[int] = None,
    ) -> None:
        super().__init__(n_cores, hash_seed=base_seed)
        if n_candidates <= 0:
            raise ValueError("n_candidates must be positive")
        self.base_seed = base_seed
        self.n_candidates = n_candidates
        if sample_size is not None:
            if sample_size <= 0:
                raise ValueError("sample_size must be positive")
            self.sample_size = sample_size
        self.sample_imbalance: Optional[float] = None

    def _candidates(self) -> List[int]:
        # Golden-ratio stride decorrelates candidate seeds; candidate 0
        # is the untouched base seed (the no-change fallback).
        return [
            (self.base_seed + i * 0x9E3779B9) & 0xFFFFFFFF
            for i in range(self.n_candidates)
        ]

    def prepare(self, sample: Sequence[Packet]) -> None:
        flow_weight = Counter(pkt.key_int for pkt in sample)
        best_seed, best_score = self.hash_seed, float("inf")
        for seed in self._candidates():
            loads = [0] * self.n_cores
            for key, weight in flow_weight.items():
                loads[fast_hash32(key, seed) % self.n_cores] += weight
            score = _imbalance(loads)
            if score < best_score:
                best_seed, best_score = seed, score
        self.hash_seed = best_seed
        self.sample_imbalance = best_score if sample else None

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info.update(
            base_seed=self.base_seed,
            n_candidates=self.n_candidates,
            sample_imbalance=self.sample_imbalance,
        )
        return info


class NtupleSteering(RssSteering):
    """Explicit ntuple rules + indirection table, jointly balanced.

    Models the two placement levers real NICs expose together:

    - ``ethtool -N ... action <q>``: the ``top_k`` heaviest flows seen
      in the sampled prefix get explicit rules (``pinned``, the
      simulated flow-director TCAM) — the only mechanism that can give
      a dominant Zipf flow a queue of its own;
    - ``ethtool -X``: everything unmatched hashes into a
      ``table_size``-entry RSS **indirection table** whose entries the
      policy places freely, so residual traffic splits into many small
      buckets instead of ``n_cores`` coarse shards.

    Heavy flows and table buckets are assigned *jointly*,
    longest-processing-time first (heaviest item onto the currently
    lightest queue) — without the joint step, residual RSS traffic
    re-loads exactly the queues the heavy flows were pinned to.  The
    achieved imbalance approaches the flow-affinity floor
    ``max(top_flow_share x n_cores, 1)``: one flow can never be split
    across queues.
    """

    name = "ntuple"
    sample_size = DEFAULT_SAMPLE_SIZE

    def __init__(
        self,
        n_cores: int,
        top_k: Optional[int] = None,
        hash_seed: int = RSS_HASH_SEED,
        sample_size: Optional[int] = None,
        table_size: int = 128,
    ) -> None:
        super().__init__(n_cores, hash_seed=hash_seed)
        if top_k is not None and top_k < 0:
            raise ValueError("top_k must be non-negative")
        if table_size < n_cores:
            raise ValueError("table_size must be >= n_cores")
        #: Rule-table budget; real NICs hold hundreds to thousands of
        #: ntuple filters, so 4 rules per queue is comfortably real.
        self.top_k = 4 * n_cores if top_k is None else top_k
        self.table_size = table_size
        if sample_size is not None:
            if sample_size <= 0:
                raise ValueError("sample_size must be positive")
            self.sample_size = sample_size
        self.pinned: Dict[int, int] = {}
        # Untrained default: round-robin table (equals plain RSS placement
        # whenever n_cores divides table_size, e.g. 8 cores / 128 slots).
        self.table: List[int] = [i % n_cores for i in range(table_size)]
        # Sampled weights, retained so the placement can be re-packed
        # over the surviving cores after a watchdog event.
        self._flow_weight: Dict[int, int] = {}
        self._bucket_weight: List[int] = [0] * table_size
        #: Rules + table entries moved by the last :meth:`repack`.
        self.last_repack_moved = 0

    def _pack(self, cores: Sequence[int]) -> None:
        """Joint LPT of pinned flows + table buckets onto ``cores``.

        Ties (weight-0 buckets) keep a stable order for determinism.
        """
        items = [
            ("flow", key, weight)
            for key, weight in self._flow_weight.items()
        ]
        items += [
            ("bucket", slot, weight)
            for slot, weight in enumerate(self._bucket_weight)
        ]
        items.sort(key=lambda item: (-item[2], item[0], item[1]))
        loads = {core: 0 for core in cores}
        pinned: Dict[int, int] = {}
        table = [cores[0]] * self.table_size
        for kind, ident, weight in items:
            queue = min(loads, key=lambda c: (loads[c], c))
            loads[queue] += weight
            if kind == "flow":
                pinned[ident] = queue
            else:
                table[ident] = queue
        self.pinned = pinned
        self.table = table

    def prepare(self, sample: Sequence[Packet]) -> None:
        flow_weight = Counter(pkt.key_int for pkt in sample)
        heavy = [key for key, _ in flow_weight.most_common(self.top_k)]
        heavy_set = set(heavy)
        bucket_weight = [0] * self.table_size
        light = [key for key in flow_weight if key not in heavy_set]
        for key, h in zip(light, fast_hash32_lanes(light, self.hash_seed)):
            bucket_weight[h % self.table_size] += flow_weight[key]
        self._flow_weight = {key: flow_weight[key] for key in heavy}
        self._bucket_weight = bucket_weight
        self._pack(range(self.n_cores))

    def repack(self, alive: Sequence[int]) -> bool:
        """Fault-aware re-steer: rebuild rules + table over ``alive``.

        Re-runs the joint LPT with the sampled weights, restricted to
        the surviving cores — the ntuple answer to failover, replacing
        the dispatcher's hash-based re-steer with a *balanced*
        placement (the failover hash preserves affinity but re-loads
        survivors unevenly under Zipf skew).  ``last_repack_moved``
        records how many placements changed (the disruption ledger).
        """
        cores = sorted(set(alive))
        if not cores:
            raise ValueError("repack needs at least one surviving core")
        for core in cores:
            if not 0 <= core < self.n_cores:
                raise ValueError(
                    f"core {core} out of range for {self.n_cores} cores"
                )
        old_pinned = dict(self.pinned)
        old_table = list(self.table)
        self._pack(cores)
        moved = sum(
            1 for key, queue in self.pinned.items()
            if old_pinned.get(key) != queue
        )
        moved += sum(
            1 for slot in range(self.table_size)
            if old_table[slot] != self.table[slot]
        )
        self.last_repack_moved = moved
        return True

    def place(self, key: int, h: int) -> int:
        queue = self.pinned.get(key)
        if queue is not None:
            return queue
        return self.table[h % self.table_size]

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info.update(
            top_k=self.top_k,
            table_size=self.table_size,
            n_pinned=len(self.pinned),
        )
        return info


#: Policy name -> constructor, for CLIs and benchmarks.
POLICIES = {
    RssSteering.name: RssSteering,
    RekeySteering.name: RekeySteering,
    NtupleSteering.name: NtupleSteering,
}


def make_policy(name: str, n_cores: int, **kwargs) -> SteeringPolicy:
    """Build a steering policy by name (``rss``/``rekey``/``ntuple``)."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown steering policy {name!r}; choose from {sorted(POLICIES)}"
        ) from None
    return cls(n_cores, **kwargs)
