"""Paper-style text rendering of experiment results.

The benchmark harness prints these tables so a run reproduces the same
rows/series the paper reports (throughput per configuration and mode,
improvement and kernel-gap summaries, latency bars, component tables).
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..ebpf.cost_model import ExecMode
from .results import BehaviorShare, ComponentResult, LatencyPoint, Sweep


def _fmt_pps(pps: float) -> str:
    return f"{pps / 1e6:7.2f} Mpps"


def render_sweep(sweep: Sweep, title: str = "") -> str:
    """One figure's series: throughput per x per mode + summary."""
    lines = [f"== {title or sweep.name} (x = {sweep.x_label}) =="]
    modes = [m for m in (ExecMode.PURE_EBPF, ExecMode.KERNEL, ExecMode.ENETSTL)
             if sweep.series(m)]
    header = f"{'x':>12} | " + " | ".join(f"{m.label:>12}" for m in modes)
    lines.append(header)
    lines.append("-" * len(header))
    for x in sweep.xs():
        cells = []
        for mode in modes:
            point = sweep.at(x, mode)
            cells.append(_fmt_pps(point.pps) if point else " " * 12)
        lines.append(f"{x:>12g} | " + " | ".join(cells))
    if sweep.series(ExecMode.PURE_EBPF) and sweep.series(ExecMode.ENETSTL):
        lines.append(
            f"eNetSTL over eBPF: avg +{sweep.avg_improvement():.1%}, "
            f"max +{sweep.max_improvement():.1%}"
        )
    if sweep.series(ExecMode.KERNEL) and sweep.series(ExecMode.ENETSTL):
        lines.append(
            f"eNetSTL gap to kernel: avg {sweep.avg_gap_to_kernel():.2%}, "
            f"max {sweep.max_gap_to_kernel():.2%}"
        )
    return "\n".join(lines)


def render_latency(points: Sequence[LatencyPoint], title: str = "Fig. 4/5") -> str:
    lines = [f"== {title}: latency @1kpps and per-packet processing time =="]
    lines.append(f"{'NF':>16} | {'mode':>8} | {'latency (us)':>12} | {'proc (ns)':>10}")
    lines.append("-" * 58)
    for p in points:
        lines.append(
            f"{p.nf:>16} | {p.mode.label:>8} | {p.avg_latency_us:12.2f} | "
            f"{p.proc_ns:10.0f}"
        )
    return "\n".join(lines)


def render_behavior_shares(shares: Sequence[BehaviorShare]) -> str:
    lines = ["== Fig. 1: shared-behavior share of execution time (eBPF) =="]
    lines.append(f"{'NF':>16} | {'behavior':>8} | {'share':>6}")
    lines.append("-" * 38)
    for s in sorted(shares, key=lambda s: s.share, reverse=True):
        lines.append(f"{s.nf:>16} | {s.observation:>8} | {s.share:6.1%}")
    lo = min(s.share for s in shares)
    hi = max(s.share for s in shares)
    lines.append(f"range: {lo:.1%} .. {hi:.1%} (paper: 20.6% .. 65.4%)")
    return "\n".join(lines)


def render_components(results: Sequence[ComponentResult]) -> str:
    lines = ["== Table 2: component cycles/op and eNetSTL speedup =="]
    by_component: Dict[str, Dict[str, float]] = {}
    for r in results:
        by_component.setdefault(r.component, {})[r.variant] = r.cycles_per_op
    lines.append(
        f"{'component':>18} | {'eBPF':>8} | {'eNetSTL':>8} | {'kernel':>8} | {'up':>7}"
    )
    lines.append("-" * 64)
    for component, variants in by_component.items():
        ebpf = variants.get("ebpf")
        enet = variants.get("enetstl")
        kern = variants.get("kernel")
        up = f"+{ebpf / enet - 1:.0%}" if ebpf and enet else "    n/a"
        lines.append(
            f"{component:>18} | "
            f"{ebpf if ebpf is not None else float('nan'):8.1f} | "
            f"{enet if enet is not None else float('nan'):8.1f} | "
            f"{kern if kern is not None else float('nan'):8.1f} | {up:>7}"
        )
    return "\n".join(lines)


def render_interfaces(comparison: Dict[str, Dict[str, float]]) -> str:
    lines = ["== Fig. 6: high-level vs per-instruction interfaces =="]
    for name, data in comparison.items():
        lines.append(
            f"{name}: high {data['high']:.0f} cyc/op, low {data['low']:.0f} "
            f"cyc/op -> degradation {data['degradation']:.1%}"
        )
    lines.append("paper: 59.0% .. 73.1% degradation")
    return "\n".join(lines)


def render_apps(results: Dict[str, Dict[str, float]]) -> str:
    lines = ["== Fig. 7: eNetSTL in real-world eBPF projects =="]
    lines.append(f"{'app':>12} | {'Origin':>12} | {'eNetSTL':>12} | {'up':>7}")
    lines.append("-" * 52)
    for app, d in results.items():
        lines.append(
            f"{app:>12} | {_fmt_pps(d['origin_pps'])} | "
            f"{_fmt_pps(d['enetstl_pps'])} | +{d['improvement']:.1%}"
        )
    avg = sum(d["improvement"] for d in results.values()) / len(results)
    lines.append(f"average improvement: +{avg:.1%} (paper: +21.6%)")
    return "\n".join(lines)


def render_table1(measured: Dict[str, float]) -> str:
    from .survey import (
        DEGRADED,
        INFEASIBLE,
        PAPER_DEGRADATION_RANGES,
        SURVEY,
        survey_summary,
    )

    lines = ["== Table 1: the 35 surveyed works =="]
    lines.append(f"{'ref':>4} | {'work':>26} | {'category':>22} | {'verdict':>10}")
    lines.append("-" * 74)
    for w in SURVEY:
        mark = {"infeasible": "x", "degraded": "deg", "ok": "ok"}[w.verdict]
        suffix = f" [built: {w.implemented_as}]" if w.implemented_as else ""
        lines.append(
            f"{w.ref:>4} | {w.name:>26} | {w.category:>22} | {mark:>10}{suffix}"
        )
    s = survey_summary()
    lines.append(
        f"summary: {s['total']} works, {s[INFEASIBLE]} infeasible, "
        f"{s[DEGRADED]} degraded, {s['ok']} ok (paper: 35/3/28/4)"
    )
    lines.append("measured eBPF-vs-kernel degradation (this reproduction):")
    for nf, deg in sorted(measured.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {nf:>16}: {deg:.1%}")
    for cat, (lo, hi) in PAPER_DEGRADATION_RANGES.items():
        lines.append(f"  paper {cat}: {lo:.1%} .. {hi:.1%}")
    return "\n".join(lines)


def render_steering(results: Dict[str, Dict[str, float]]) -> str:
    lines = ["== Multi-queue steering: 8-core Zipf(1.1) replay =="]
    lines.append(
        f"{'policy':>8} | {'imbalance':>9} | {'aggregate':>12} | {'cycles':>12}"
    )
    lines.append("-" * 52)
    for policy, d in results.items():
        lines.append(
            f"{policy:>8} | {d['imbalance']:>9.3f} | "
            f"{d['aggregate_mpps']:>8.2f}Mpps | {int(d['total_cycles']):>12}"
        )
    if "rss" in results and "ntuple" in results:
        gain = (
            results["ntuple"]["aggregate_mpps"]
            / results["rss"]["aggregate_mpps"]
            - 1.0
        )
        lines.append(
            f"ntuple pinning vs plain RSS: +{gain:.1%} aggregate throughput"
        )
    return "\n".join(lines)
