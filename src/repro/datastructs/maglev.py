"""Maglev consistent hashing ([23]).

Google's load-balancer lookup table: each backend fills a prime-sized
table following its own permutation (offset, skip), giving near-equal
shares and minimal disruption when the backend set changes.  Lookup is
one hash and one array read — which is why Maglev is one of the four
surveyed works that eBPF implements *without* degradation (Table 1):
there is no multi-hash, bitmap, list, or random behavior for eNetSTL
to accelerate.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..core.algorithms.hashing import fast_hash32

DEFAULT_TABLE_SIZE = 65537   # prime, as the paper requires


def maglev_fill(perms: Sequence[Tuple[int, int]], size: int) -> List[int]:
    """Maglev's permutation fill: slot -> index into ``perms``.

    ``size`` is prime and ``perms[b]`` is backend ``b``'s
    ``(offset, skip)``, with ``0 <= offset < size`` and
    ``0 < skip < size``: its preference list is
    ``(offset + j * skip) % size`` for ``j = 0, 1, ...``.  Backends take
    turns, each claiming the next free slot of its own list, until all
    ``size`` slots are owned.
    """
    if not perms:
        raise ValueError("at least one backend required")
    table = [-1] * size
    nxt = [offset for offset, _ in perms]   # next candidate slot each
    filled = 0
    while True:
        for b, (_, skip) in enumerate(perms):
            c = nxt[b]
            while table[c] >= 0:
                c = (c + skip) % size
            table[c] = b
            nxt[b] = (c + skip) % size
            filled += 1
            if filled == size:
                return table


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


class MaglevTable:
    """Backend-selection table with minimal-disruption semantics."""

    def __init__(
        self, backends: Sequence[str], table_size: int = DEFAULT_TABLE_SIZE
    ) -> None:
        if not backends:
            raise ValueError("at least one backend required")
        if len(set(backends)) != len(backends):
            raise ValueError("backend names must be unique")
        if not _is_prime(table_size):
            raise ValueError("table_size must be prime")
        if len(backends) > table_size:
            raise ValueError("more backends than table entries")
        self.backends: List[str] = list(backends)
        self.table_size = table_size
        self.table: List[int] = self._populate()

    def _permutation_params(self, backend: str):
        offset = fast_hash32(backend.encode(), 900) % self.table_size
        skip = fast_hash32(backend.encode(), 901) % (self.table_size - 1) + 1
        return offset, skip

    def _populate(self) -> List[int]:
        return maglev_fill(
            [self._permutation_params(b) for b in self.backends],
            self.table_size,
        )

    def lookup(self, flow_hash: int) -> str:
        return self.backends[self.table[flow_hash % self.table_size]]

    def shares(self) -> Dict[str, float]:
        """Fraction of the table owned by each backend."""
        counts = [0] * len(self.backends)
        for b in self.table:
            counts[b] += 1
        return {
            name: counts[i] / self.table_size
            for i, name in enumerate(self.backends)
        }

    def disruption_on_removal(self, backend: str) -> float:
        """Fraction of *other* backends' entries that move when one
        backend is removed (Maglev's headline: close to 0)."""
        if backend not in self.backends:
            raise ValueError(f"unknown backend {backend!r}")
        remaining = [b for b in self.backends if b != backend]
        after = MaglevTable(remaining, self.table_size)
        moved = 0
        kept_total = 0
        for i, owner in enumerate(self.table):
            name = self.backends[owner]
            if name == backend:
                continue
            kept_total += 1
            if after.lookup(i) != name:
                moved += 1
        return moved / kept_total if kept_total else 0.0
