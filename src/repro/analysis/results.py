"""Result containers for the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..ebpf.cost_model import ExecMode


@dataclass(frozen=True)
class ModePoint:
    """One (configuration, execution-mode) measurement."""

    x: float                      # the swept parameter value
    mode: ExecMode
    cycles_per_packet: float
    pps: float
    proc_ns: float
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class Sweep:
    """A full figure's data: series of points per mode."""

    name: str                     # e.g. "fig3e"
    x_label: str
    points: List[ModePoint] = field(default_factory=list)

    def add(self, point: ModePoint) -> None:
        self.points.append(point)

    def series(self, mode: ExecMode) -> List[ModePoint]:
        return sorted(
            (p for p in self.points if p.mode == mode), key=lambda p: p.x
        )

    def xs(self) -> List[float]:
        return sorted({p.x for p in self.points})

    def at(self, x: float, mode: ExecMode) -> Optional[ModePoint]:
        for p in self.points:
            if p.x == x and p.mode == mode:
                return p
        return None

    # -- paper-style summary statistics --------------------------------

    def improvements(self) -> Dict[float, float]:
        """Per-x relative throughput improvement of eNetSTL over eBPF."""
        out = {}
        for x in self.xs():
            base = self.at(x, ExecMode.PURE_EBPF)
            opt = self.at(x, ExecMode.ENETSTL)
            if base is not None and opt is not None:
                out[x] = opt.pps / base.pps - 1.0
        return out

    def avg_improvement(self) -> float:
        imps = self.improvements()
        if not imps:
            raise ValueError(f"{self.name}: no comparable points")
        return sum(imps.values()) / len(imps)

    def max_improvement(self) -> float:
        imps = self.improvements()
        if not imps:
            raise ValueError(f"{self.name}: no comparable points")
        return max(imps.values())

    def gaps_to_kernel(self) -> Dict[float, float]:
        """Per-x throughput shortfall of eNetSTL versus the kernel."""
        out = {}
        for x in self.xs():
            kern = self.at(x, ExecMode.KERNEL)
            opt = self.at(x, ExecMode.ENETSTL)
            if kern is not None and opt is not None:
                out[x] = 1.0 - opt.pps / kern.pps
        return out

    def avg_gap_to_kernel(self) -> float:
        gaps = self.gaps_to_kernel()
        if not gaps:
            raise ValueError(f"{self.name}: no kernel points")
        return sum(gaps.values()) / len(gaps)

    def max_gap_to_kernel(self) -> float:
        gaps = self.gaps_to_kernel()
        if not gaps:
            raise ValueError(f"{self.name}: no kernel points")
        return max(gaps.values())


@dataclass(frozen=True)
class LatencyPoint:
    """Fig. 4/5: one NF's latency and per-packet processing time."""

    nf: str
    mode: ExecMode
    avg_latency_us: float
    proc_ns: float


@dataclass(frozen=True)
class BehaviorShare:
    """Fig. 1: share of execution time in the shared behaviors."""

    nf: str
    observation: str          # which O1..O6 dominates this NF
    share: float              # fraction of cycles in O1..O6 buckets


@dataclass(frozen=True)
class ComponentResult:
    """Table 2 / Fig. 6: per-component micro results (cycles per op)."""

    component: str
    variant: str              # "ebpf", "enetstl", "kernel", "lowlevel"
    cycles_per_op: float
