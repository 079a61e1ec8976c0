"""Tuple-space-search packet classification ([68]).

Each distinct rule mask is one tuple; classification probes every
tuple's exact-match table with the packet's masked key and keeps the
highest-priority hit.  Per-tuple work = mask application + hash +
table probe + compare.  eNetSTL computes all tuple hashes in one SIMD
batch (the O2 behavior) and compares with SIMD; the eBPF baseline
hashes each masked key in software.
"""

from __future__ import annotations

from typing import List, Optional

from ..datastructs.tss import Rule, TupleSpaceClassifier
from ..ebpf.cost_model import Category
from ..net.packet import Packet, XdpAction
from .base import BaseNF

#: Applying one mask to the parsed 5-tuple.
MASK_APPLY_COST = 6
#: Exact-match probe of one tuple's hash table (bucket fetch).
TABLE_PROBE_COST = 38
#: Matched-key compare + priority update.
MATCH_CMP_COST = 5
#: eBPF's software hash of a masked key is shorter than a full 5-tuple
#: xxhash (fixed 13B, no length branches) — calibrated.
EBPF_MASKED_HASH = 56
#: Fixed eBPF overhead per packet (verifier re-checks; calibrated).
EBPF_FIXED_OVERHEAD = 12


class TssClassifierNF(BaseNF):
    """Multi-tuple flow classifier: PASS on permit rules, DROP otherwise."""

    name = "tuple space search classifier"
    category = "packet classification"

    def __init__(self, rt) -> None:
        super().__init__(rt)
        self.classifier = TupleSpaceClassifier()
        self.matched = 0
        self.unmatched = 0

    def install_rules(self, rules: List[Rule]) -> None:
        for rule in rules:
            self.classifier.add_rule(rule)

    def classify(self, packet: Packet) -> Optional[Rule]:
        n_tuples = self.classifier.n_tuples
        if n_tuples == 0:
            return None
        self.rt.charge(MASK_APPLY_COST * n_tuples, Category.OTHER)
        if self.is_ebpf:
            self.rt.charge(EBPF_MASKED_HASH * n_tuples, Category.MULTIHASH)
            self.rt.charge(EBPF_FIXED_OVERHEAD, Category.FRAMEWORK)
        else:
            # One SIMD batch hashes every tuple's masked key at once.
            self.rt.charge(
                self.prices.multi_hash(n_tuples), Category.MULTIHASH
            )
        self.rt.charge(
            (TABLE_PROBE_COST + MATCH_CMP_COST) * n_tuples, Category.BUCKETS
        )
        return self.classifier.classify(packet)

    def process(self, packet: Packet) -> str:
        self.fetch_state()
        rule = self.classify(packet)
        if rule is None:
            self.unmatched += 1
            return XdpAction.DROP
        self.matched += 1
        return XdpAction.PASS if rule.action == "permit" else XdpAction.DROP
