"""HyperCuts-style decision-tree packet classifier ([67], [32]).

Rules are hyperrectangles over the 5-tuple space (derived from the same
prefix/care masks TSS uses).  The tree recursively cuts the dimension
whose rule projections are most diverse into equal intervals; leaves
hold small rule lists searched linearly by priority.

Classification is pure pointer-chasing and compares — bounded loops,
no hashing, no SIMD — which is why cutting-based classifiers are among
the four surveyed works eBPF implements without degradation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .tss import Rule

if TYPE_CHECKING:   # annotations only: repro.net imports this package
    from ..net.packet import Packet

DIM_LIMITS = (1 << 32, 1 << 32, 1 << 16, 1 << 16, 1 << 8)
N_DIMS = 5
DEFAULT_BINTH = 8        # max rules per leaf
DEFAULT_MAX_DEPTH = 10
DEFAULT_CUTS = 4         # children per internal node


def rule_ranges(rule: Rule) -> List[Tuple[int, int]]:
    """The rule's inclusive [lo, hi] interval per dimension."""
    mask = rule.mask
    src_bits = mask.src_prefix
    dst_bits = mask.dst_prefix
    src_mask = ((1 << src_bits) - 1) << (32 - src_bits) if src_bits else 0
    dst_mask = ((1 << dst_bits) - 1) << (32 - dst_bits) if dst_bits else 0
    src_lo = rule.src_ip & src_mask
    dst_lo = rule.dst_ip & dst_mask
    return [
        (src_lo, src_lo | (~src_mask & 0xFFFFFFFF)),
        (dst_lo, dst_lo | (~dst_mask & 0xFFFFFFFF)),
        (rule.src_port, rule.src_port) if mask.src_port_care else (0, 0xFFFF),
        (rule.dst_port, rule.dst_port) if mask.dst_port_care else (0, 0xFFFF),
        (rule.proto, rule.proto) if mask.proto_care else (0, 0xFF),
    ]


def rule_matches(rule: Rule, pkt: Packet) -> bool:
    ranges = rule_ranges(rule)
    values = (pkt.src_ip, pkt.dst_ip, pkt.src_port, pkt.dst_port, pkt.proto)
    return all(lo <= v <= hi for v, (lo, hi) in zip(values, ranges))


@dataclass
class _Node:
    # Internal node: cut `dim` over [lo, hi] into len(children) slices.
    dim: int = -1
    lo: int = 0
    hi: int = 0
    children: Optional[List["_Node"]] = None
    rules: Optional[List[Rule]] = None      # leaf payload

    @property
    def is_leaf(self) -> bool:
        return self.rules is not None


class HyperCutsTree:
    """Build once from a rule set; classify packets by tree descent."""

    def __init__(
        self,
        rules: Sequence[Rule],
        binth: int = DEFAULT_BINTH,
        max_depth: int = DEFAULT_MAX_DEPTH,
        n_cuts: int = DEFAULT_CUTS,
    ) -> None:
        if binth <= 0 or max_depth <= 0 or n_cuts < 2:
            raise ValueError("invalid tree parameters")
        self.binth = binth
        self.max_depth = max_depth
        self.n_cuts = n_cuts
        self.n_rules = len(rules)
        bounds = [(0, limit - 1) for limit in DIM_LIMITS]
        self.root = self._build(list(rules), bounds, depth=0)
        self.depth = self._measure_depth(self.root)

    # -- construction ------------------------------------------------------

    def _pick_dimension(self, rules, bounds) -> int:
        best_dim, best_score = -1, 1
        for dim in range(N_DIMS):
            lo, hi = bounds[dim]
            if lo >= hi:
                continue
            projections = {
                (max(r_lo, lo), min(r_hi, hi))
                for r_lo, r_hi in (rule_ranges(r)[dim] for r in rules)
            }
            if len(projections) > best_score:
                best_dim, best_score = dim, len(projections)
        return best_dim

    def _build(self, rules, bounds, depth) -> _Node:
        if len(rules) <= self.binth or depth >= self.max_depth:
            return _Node(rules=sorted(rules, key=lambda r: -r.priority))
        dim = self._pick_dimension(rules, bounds)
        if dim < 0:
            return _Node(rules=sorted(rules, key=lambda r: -r.priority))
        lo, hi = bounds[dim]
        span = hi - lo + 1
        cuts = min(self.n_cuts, span)
        step = span // cuts
        children: List[_Node] = []
        progressed = False
        slices = []
        for i in range(cuts):
            c_lo = lo + i * step
            c_hi = hi if i == cuts - 1 else c_lo + step - 1
            subset = [
                r
                for r in rules
                if not (
                    rule_ranges(r)[dim][1] < c_lo
                    or rule_ranges(r)[dim][0] > c_hi
                )
            ]
            slices.append((c_lo, c_hi, subset))
            if len(subset) < len(rules):
                progressed = True
        if not progressed:
            return _Node(rules=sorted(rules, key=lambda r: -r.priority))
        for c_lo, c_hi, subset in slices:
            child_bounds = list(bounds)
            child_bounds[dim] = (c_lo, c_hi)
            children.append(self._build(subset, child_bounds, depth + 1))
        return _Node(dim=dim, lo=lo, hi=hi, children=children)

    def _measure_depth(self, node: _Node) -> int:
        if node.is_leaf:
            return 1
        return 1 + max(self._measure_depth(c) for c in node.children)

    # -- classification --------------------------------------------------------

    def classify(self, pkt: Packet) -> Tuple[Optional[Rule], int, int]:
        """(best rule, nodes visited, rules compared)."""
        values = (pkt.src_ip, pkt.dst_ip, pkt.src_port, pkt.dst_port, pkt.proto)
        node = self.root
        visited = 0
        while not node.is_leaf:
            visited += 1
            span = node.hi - node.lo + 1
            cuts = len(node.children)
            step = span // cuts
            index = min((values[node.dim] - node.lo) // step, cuts - 1)
            node = node.children[index]
        visited += 1
        compared = 0
        for rule in node.rules:
            compared += 1
            if rule_matches(rule, pkt):
                return rule, visited, compared
        return None, visited, compared
