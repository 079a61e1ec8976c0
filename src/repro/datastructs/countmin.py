"""Count-min sketch matrix ([15]).

The one count-min implementation: the sketching NFs
(:mod:`repro.nfs.countmin`, :mod:`repro.nfs.nitrosketch`), the IR
count-min kfuncs and the per-CPU merge all hold a
:class:`CountMinSketch` and charge their costs beside it.  They differ
only in the row hash ``hash(key, row)``, which each picks once:
``fast_hash32`` (the SIMD batch and software hashes), ``crc_hash32``
(one hardware CRC per row) or ``salted_hash32`` (the IR kfuncs).
"""

from __future__ import annotations

from typing import Callable, List

from ..core.algorithms.hashing import fast_hash32


class CountMinSketch:
    """Count-min: point updates, min-estimate queries."""

    def __init__(
        self,
        depth: int = 4,
        width: int = 2048,
        hash: Callable[[int, int], int] = fast_hash32,
    ) -> None:
        if depth <= 0:
            raise ValueError("depth must be positive")
        if width <= 0:
            raise ValueError("width must be positive")
        self.depth = depth
        self.width = width
        self.hash = hash
        self.rows: List[List[int]] = [[0] * width for _ in range(depth)]
        self.total = 0

    def column(self, key: int, row: int) -> int:
        """The column ``key`` selects in row ``row``."""
        return self.hash(key, row) % self.width

    def columns(self, key: int) -> List[int]:
        """The column ``key`` selects in each row."""
        hash, width = self.hash, self.width
        return [hash(key, row) % width for row in range(self.depth)]

    def update(self, key: int, delta: int = 1) -> int:
        """Add ``delta`` to the key's counter in every row; returns the
        minimum of the updated counters (the new estimate)."""
        hash, width = self.hash, self.width
        est = None
        for row, counters in enumerate(self.rows):
            col = hash(key, row) % width
            value = counters[col] + delta
            counters[col] = value
            if est is None or value < est:
                est = value
        self.total += delta
        return est

    def estimate(self, key: int) -> int:
        hash, width = self.hash, self.width
        return min(
            counters[hash(key, row) % width]
            for row, counters in enumerate(self.rows)
        )

    def check_mergeable(self, other: "CountMinSketch") -> None:
        """Raise ``ValueError`` unless ``other`` has this sketch's depth,
        width and row hash, so that its counters add into this one's."""
        if (other.depth, other.width, other.hash) != (
            self.depth, self.width, self.hash
        ):
            raise ValueError("sketch dimensions or row hashes differ")

    def merge(self, other: "CountMinSketch") -> None:
        """Add another sketch with identical dimensions into this one."""
        self.check_mergeable(other)
        for row in range(self.depth):
            mine, theirs = self.rows[row], other.rows[row]
            for col in range(self.width):
                mine[col] += theirs[col]
        self.total += other.total

    def error_bound(self) -> float:
        """Classic CM bound: err <= e/width * total with prob 1-e^-depth."""
        return 2.718281828 / self.width * self.total
