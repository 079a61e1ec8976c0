"""Tuple Space Search packet classifier ([68]).

Rules are grouped by their *mask tuple* (which fields they wildcard and
the IP prefix lengths they use); each group is a hash table keyed by
the masked header.  Classification probes every tuple's table with the
packet's correspondingly-masked key and keeps the highest-priority
match — so per-packet cost scales with the number of tuples, each probe
being a hash + compare (the behaviors eNetSTL accelerates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:   # annotations only: repro.net imports this package
    from ..net.packet import Packet


@dataclass(frozen=True)
class MaskTuple:
    """Field mask: IP prefix lengths + care-bits for ports/proto."""

    src_prefix: int = 32
    dst_prefix: int = 32
    src_port_care: bool = True
    dst_port_care: bool = True
    proto_care: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.src_prefix <= 32 or not 0 <= self.dst_prefix <= 32:
            raise ValueError("prefix lengths must be in [0, 32]")

    @staticmethod
    def _prefix_mask(bits: int) -> int:
        return ((1 << bits) - 1) << (32 - bits) if bits else 0

    def mask_packet(self, pkt: Packet) -> Tuple[int, int, int, int, int]:
        return (
            pkt.src_ip & self._prefix_mask(self.src_prefix),
            pkt.dst_ip & self._prefix_mask(self.dst_prefix),
            pkt.src_port if self.src_port_care else 0,
            pkt.dst_port if self.dst_port_care else 0,
            pkt.proto if self.proto_care else 0,
        )

    def mask_fields(
        self, src_ip: int, dst_ip: int, src_port: int, dst_port: int, proto: int
    ) -> Tuple[int, int, int, int, int]:
        return (
            src_ip & self._prefix_mask(self.src_prefix),
            dst_ip & self._prefix_mask(self.dst_prefix),
            src_port if self.src_port_care else 0,
            dst_port if self.dst_port_care else 0,
            proto if self.proto_care else 0,
        )


@dataclass(frozen=True)
class Rule:
    """A classification rule: masked fields + priority + action."""

    mask: MaskTuple
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    proto: int
    priority: int
    action: str

    @property
    def masked_key(self) -> Tuple[int, int, int, int, int]:
        return self.mask.mask_fields(
            self.src_ip, self.dst_ip, self.src_port, self.dst_port, self.proto
        )


class TupleSpaceClassifier:
    """The tuple space: one exact-match table per distinct mask."""

    def __init__(self) -> None:
        self._tables: Dict[MaskTuple, Dict[Tuple, Rule]] = {}

    def add_rule(self, rule: Rule) -> None:
        table = self._tables.setdefault(rule.mask, {})
        existing = table.get(rule.masked_key)
        if existing is None or rule.priority > existing.priority:
            table[rule.masked_key] = rule

    def remove_rule(self, rule: Rule) -> bool:
        table = self._tables.get(rule.mask)
        if table is None:
            return False
        removed = table.pop(rule.masked_key, None) is not None
        if not table:
            del self._tables[rule.mask]
        return removed

    @property
    def n_tuples(self) -> int:
        return len(self._tables)

    @property
    def n_rules(self) -> int:
        return sum(len(t) for t in self._tables.values())

    def tuples(self) -> List[MaskTuple]:
        return list(self._tables.keys())

    def classify(self, pkt: Packet) -> Optional[Rule]:
        """Highest-priority matching rule (probes every tuple)."""
        best: Optional[Rule] = None
        for mask, table in self._tables.items():
            rule = table.get(mask.mask_packet(pkt))
            if rule is not None and (best is None or rule.priority > best.priority):
                best = rule
        return best
