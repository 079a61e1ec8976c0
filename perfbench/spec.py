"""Shared pieces of the workload definitions (standard library only, so
importing them adds nothing to a workload's measured set-up time)."""

from __future__ import annotations

import hashlib
import time
from typing import Any, Callable, Dict, List, NamedTuple, Sequence

#: Packets per timed chunk of the replay stream.
CHUNK_PACKETS = 1024

#: Seconds one ``probe`` takes on a quiet host of the kind the
#: benchmark was tuned on (2-vCPU x86-64 VM, CPython 3.11).
PROBE_REF_S = 0.001


def probe() -> float:
    """Seconds a fixed pure-Python kernel takes right now.

    The kernel mixes integer hashing, dict updates and small-object
    allocation, like the simulator's inner loops.  The shared hosts
    this benchmark runs on change speed by up to 2x for seconds at a
    time; a phase's wall time scaled by ``speed`` of the probes taken
    at its two ends reads what the phase takes at the reference speed.
    """
    start = time.perf_counter()
    counts: Dict[int, int] = {}
    x = 12345
    n = 0
    for _ in range(3000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 255
        counts[key] = counts.get(key, 0) + 1
        n += len(str(key))
    return time.perf_counter() - start


def speed(before: float, after: float) -> float:
    """Factor from this host's current speed to the reference speed."""
    return PROBE_REF_S / ((before + after) / 2)


class Clock:
    """Chunk times of the measured phase, at the reference speed.

    ``begin`` probes and opens the first chunk; ``mark`` closes the
    current chunk, probes, and opens the next.  Probes run between
    chunks, so the chunks tile the measured phase minus the probes.
    A workload's chunk structure is fixed by its inputs: chunk ``i``
    does the same work in every repetition of a seed.
    """

    def __init__(self) -> None:
        self.wall_ms: List[float] = []
        self.probes: List[float] = []
        self._start = 0.0

    def begin(self) -> None:
        self.probes = [probe()]
        self._start = time.perf_counter()

    def mark(self) -> None:
        self.wall_ms.append((time.perf_counter() - self._start) * 1e3)
        self.probes.append(probe())
        self._start = time.perf_counter()

    #: Closing a sub-phase (one ``run`` call, the paper's last checks).
    end = mark

    def chunk_ms(self) -> List[float]:
        p = self.probes
        return [ms * speed(p[i], p[i + 1])
                for i, ms in enumerate(self.wall_ms)]


class ChunkClock(Clock):
    """Marks every ``CHUNK_PACKETS`` packets of a replay stream.

    ``stream`` yields the packets unchanged and marks the moment the
    consumer pulls the first packet of each slice after the first.  A
    phase's first chunk thus also holds whatever ran since the previous
    mark (run set-up, a control-plane action between phases), and its
    last chunk the end-of-stream drain and accounting.
    """

    def stream(self, packets: Sequence):
        for i in range(0, len(packets), CHUNK_PACKETS):
            if i:
                self.mark()
            yield from packets[i:i + CHUNK_PACKETS]


def digest(obj: Any) -> str:
    """Short stable hash of a value's ``repr`` (for long sequences)."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:20]


class Workload(NamedTuple):
    inputs: Callable[[int], Any]
    build: Callable[[int, str], Any]
    replay: Callable[[Any, Any, Clock], Any]
    outcome: Callable[[Any, Any], Dict]
    clock: Callable[[], Clock] = ChunkClock
    #: Packets the prefix parity check replays on both backends.
    parity_packets: int = 2000
