"""The paper's headline numbers as structured targets, plus a checker.

:data:`TARGETS` states every headline band once, keyed by experiment.
``check_all`` runs every experiment and checks each target against the
metric its ``read`` takes from that experiment's result — the
programmatic version of EXPERIMENTS.md.  The CLI exposes it as
``python -m repro.analysis --paper-check``; the band tests check one
experiment's result through :func:`check`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from .components import fig6_interface_comparison, table2_improvements
from .results import Sweep
from .survey import survey_summary


@dataclass(frozen=True)
class Target:
    """One headline metric with the paper's value and our band.

    ``read`` takes the metric from its experiment's result.
    """

    experiment: str
    metric: str
    paper_value: float
    lo: float
    hi: float
    read: Callable[[Any], float] = field(compare=False, repr=False)

    def check(self, measured: float) -> "CheckResult":
        return CheckResult(
            target=self, measured=measured, ok=self.lo <= measured <= self.hi
        )


@dataclass(frozen=True)
class CheckResult:
    target: Target
    measured: float
    ok: bool

    def describe(self) -> str:
        t = self.target
        status = "PASS" if self.ok else "FAIL"
        return (
            f"[{status}] {t.experiment:>22} {t.metric:<18} "
            f"paper={t.paper_value:6.1%}  measured={self.measured:6.1%}  "
            f"band=[{t.lo:.0%}, {t.hi:.0%}]"
        )


def _sweep(label, imp, gap):
    """A sweep's targets; ``imp`` and ``gap`` are (paper, lo, hi)."""
    out = []
    if imp is not None:
        out.append(Target(label, "avg improvement", *imp,
                          read=Sweep.avg_improvement))
    out.append(Target(label, "kernel gap", *gap, read=Sweep.avg_gap_to_kernel))
    return out


def _degradation(name):
    return Target("fig6", f"{name} degradation", 0.66, 0.55, 0.76,
                  read=lambda comp: comp[name]["degradation"])


#: Every headline target, keyed by the experiment whose result its
#: ``read`` takes, in ``check_all`` order.  The ``table2``, ``fig6``
#: and ``table1`` targets read what ``check_all`` computes after the
#: experiments: ``table2_improvements()``,
#: ``fig6_interface_comparison()`` and ``survey_summary()``.
TARGETS: Dict[str, List[Target]] = {
    "fig3a": _sweep("fig3a skiplist lookup", None, (0.0733, 0.04, 0.12)),
    "fig3b": _sweep("fig3b skiplist upd/del", None, (0.0854, 0.05, 0.13)),
    "fig3c": _sweep("fig3c cuckoo switch", (0.274, 0.20, 0.35),
                    (0.0430, 0.0, 0.07)),
    "fig3d": _sweep("fig3d nitrosketch", (0.754, 0.60, 0.90),
                    (0.0524, 0.0, 0.08)),
    "fig3e": _sweep("fig3e count-min", (0.479, 0.40, 0.58),
                    (0.0164, 0.0, 0.06)),
    "fig3f": _sweep("fig3f time wheel", (0.384, 0.30, 0.48),
                    (0.0575, 0.0, 0.08)),
    "fig3g": _sweep("fig3g cuckoo filter", (0.318, 0.24, 0.40),
                    (0.008, 0.0, 0.05)),
    "fig3h": _sweep("fig3h eiffel", (0.146, 0.08, 0.24), (0.0, 0.0, 0.06)),
    "efd": _sweep("efd", (0.483, 0.40, 0.58), (0.0471, 0.0, 0.07)),
    "tss": _sweep("tss", (0.267, 0.20, 0.34), (0.0396, 0.0, 0.06)),
    "heavykeeper": _sweep("heavykeeper", (0.300, 0.22, 0.38),
                          (0.0253, 0.0, 0.06)),
    "vbf": _sweep("vbf", (0.158, 0.10, 0.22), (0.0262, 0.0, 0.06)),
    # Shared-behavior shares, 20.6% .. 65.4% in the paper.
    "fig1": [
        Target("fig1", "min share", 0.206, 0.10, 0.40,
               read=lambda shares: min(s.share for s in shares)),
        Target("fig1", "max share", 0.654, 0.50, 0.75,
               read=lambda shares: max(s.share for s in shares)),
    ],
    # Component speedups, +52% .. +513%.
    "table2": [
        Target("table2", "min speedup", 0.52, 0.50, 2.0,
               read=lambda imps: min(imps.values())),
        Target("table2", "max speedup", 5.13, 3.0, 5.5,
               read=lambda imps: max(imps.values())),
    ],
    # Interface ablation degradations, 59.0% .. 73.1%.
    "fig6": [_degradation("COMP"), _degradation("HASH")],
    "fig7": [
        Target("fig7", "avg improvement", 0.216, 0.15, 0.30,
               read=lambda apps: sum(
                   d["improvement"] for d in apps.values()) / len(apps)),
    ],
    # The survey counts are exact.
    "table1": [
        Target("table1", "infeasible works", 3 / 35, 3 / 35, 3 / 35,
               read=lambda s: s["infeasible"] / s["total"]),
    ],
}


def check(name: str, result: Any) -> List[CheckResult]:
    """Check one result of experiment ``name`` against its targets."""
    return [t.check(t.read(result)) for t in TARGETS[name]]


def check_all(
    n_packets: int = 800, jobs=1, cache=None, retries: int = 1
) -> List[CheckResult]:
    """Run everything; returns one result per headline metric.

    ``jobs``/``cache``/``retries`` fan the experiment matrix across
    worker processes, reuse cached sweep points and retry failed ones
    (bit-identical to the serial path — see
    :mod:`repro.analysis.parallel`).
    """
    from .parallel import run_experiments

    # Computed in this process after the runner's experiments, as no
    # subtask: they take no packet count and are never cached.
    after = {
        "table2": table2_improvements,
        "fig6": fig6_interface_comparison,
        "table1": survey_summary,
    }
    computed = run_experiments(
        [name for name in TARGETS if name not in after],
        n_packets=n_packets, jobs=jobs, cache=cache, retries=retries,
    )
    for name, compute in after.items():
        computed[name] = compute()
    return [r for name in TARGETS for r in check(name, computed[name])]


def render_check(results: List[CheckResult]) -> str:
    lines = ["== Paper-target check =="]
    lines.extend(r.describe() for r in results)
    passed = sum(1 for r in results if r.ok)
    lines.append(f"{passed}/{len(results)} headline metrics in band")
    return "\n".join(lines)
