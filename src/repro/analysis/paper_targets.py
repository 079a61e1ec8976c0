"""The paper's headline numbers as structured targets, plus a checker.

``check_all`` runs every experiment, compares each headline metric to
its acceptance band, and returns structured results — the programmatic
version of EXPERIMENTS.md.  The CLI exposes it as
``python -m repro.analysis --paper-check``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .components import fig6_interface_comparison, table2_improvements
from .survey import survey_summary


@dataclass(frozen=True)
class Target:
    """One headline metric with the paper's value and our band."""

    experiment: str
    metric: str
    paper_value: float
    lo: float
    hi: float

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


def _sweep_targets(name, paper_imp, paper_gap, imp_band, gap_hi):
    out = []
    if paper_imp is not None:
        out.append(Target(name, "avg improvement", paper_imp, *imp_band))
    out.append(Target(name, "kernel gap", paper_gap, 0.0, gap_hi))
    return out


#: Headline targets per sweep experiment; ``check_all`` computes the
#: sweeps in this key order.
TARGETS: Dict[str, List[Target]] = {
    "fig3a": _sweep_targets("fig3a skiplist lookup", None, 0.0733, None, 0.12),
    "fig3b": _sweep_targets("fig3b skiplist upd/del", None, 0.0854, None, 0.13),
    "fig3c": _sweep_targets("fig3c cuckoo switch", 0.274, 0.0430,
                            (0.20, 0.35), 0.07),
    "fig3d": _sweep_targets("fig3d nitrosketch", 0.754, 0.0524,
                            (0.60, 0.90), 0.08),
    "fig3e": _sweep_targets("fig3e count-min", 0.479, 0.0164,
                            (0.40, 0.58), 0.06),
    "fig3f": _sweep_targets("fig3f time wheel", 0.384, 0.0575,
                            (0.30, 0.48), 0.08),
    "fig3g": _sweep_targets("fig3g cuckoo filter", 0.318, 0.008,
                            (0.24, 0.40), 0.05),
    "fig3h": _sweep_targets("fig3h eiffel", 0.146, 0.0,
                            (0.08, 0.24), 0.06),
    "efd": _sweep_targets("efd", 0.483, 0.0471, (0.40, 0.58), 0.07),
    "tss": _sweep_targets("tss", 0.267, 0.0396, (0.20, 0.34), 0.06),
    "heavykeeper": _sweep_targets("heavykeeper", 0.300, 0.0253,
                                  (0.22, 0.38), 0.06),
    "vbf": _sweep_targets("vbf", 0.158, 0.0262, (0.10, 0.22), 0.06),
}

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

    results: List[CheckResult] = []

    names = list(TARGETS) + ["fig1", "fig7"]
    computed = run_experiments(
        names, n_packets=n_packets, jobs=jobs, cache=cache, retries=retries
    )

    for key in TARGETS:
        sweep = computed[key]
        for target in TARGETS[key]:
            if target.metric == "avg improvement":
                results.append(target.check(sweep.avg_improvement()))
            else:
                results.append(target.check(sweep.avg_gap_to_kernel()))

    # Fig. 1: shared-behavior shares, 20.6% .. 65.4% in the paper.
    shares = [s.share for s in computed["fig1"]]
    results.append(
        Target("fig1", "min share", 0.206, 0.10, 0.40).check(min(shares))
    )
    results.append(
        Target("fig1", "max share", 0.654, 0.50, 0.75).check(max(shares))
    )

    # Table 2: component speedups, +52% .. +513%.
    imps = table2_improvements()
    results.append(
        Target("table2", "min speedup", 0.52, 0.50, 2.0).check(min(imps.values()))
    )
    results.append(
        Target("table2", "max speedup", 5.13, 3.0, 5.5).check(max(imps.values()))
    )

    # Fig. 6: interface ablation degradations 59.0% .. 73.1%.
    for name, data in fig6_interface_comparison().items():
        results.append(
            Target("fig6", f"{name} degradation", 0.66, 0.55, 0.76).check(
                data["degradation"]
            )
        )

    # Fig. 7: +21.6% average app improvement.
    apps = computed["fig7"]
    avg_imp = sum(d["improvement"] for d in apps.values()) / len(apps)
    results.append(
        Target("fig7", "avg improvement", 0.216, 0.15, 0.30).check(avg_imp)
    )

    # Table 1 survey counts are exact.
    summary = survey_summary()
    results.append(
        Target("table1", "infeasible works", 3 / 35, 3 / 35, 3 / 35).check(
            summary["infeasible"] / summary["total"]
        )
    )
    return results


def render_check(results: List[CheckResult]) -> str:
    lines = ["== Paper-target check =="]
    lines.extend(r.describe() for r in results)
    passed = sum(1 for r in results if r.ok)
    lines.append(f"{passed}/{len(results)} headline metrics in band")
    return "\n".join(lines)
