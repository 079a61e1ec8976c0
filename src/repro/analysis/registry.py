"""Every paper experiment, declared once.

:data:`EXPERIMENTS` maps each experiment name to how it is computed
(the :data:`~repro.analysis.parallel.TASK_FNS` function it runs and
how that call shards into subtasks) and how it is printed.  Its order
is the report order.  The runner (:mod:`repro.analysis.parallel`) and
the CLI (``python -m repro.analysis``) read nothing else; the sweep
values are the experiment functions' own default constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..apps.ir import IR_APP_NAMES
from . import experiments as exp
from . import report

#: A subtask: (registered function name, kwargs).  Both picklable.
Subtask = Tuple[str, Dict[str, Any]]


@dataclass(frozen=True)
class Experiment:
    """One experiment: what it runs, how it shards, how it prints.

    ``over=(kwarg, values)`` runs one subtask per value, passing
    ``kwarg=(value,)``; without it the experiment is one subtask.
    ``fixed`` kwargs go to every subtask.  Each subtask replays
    ``min(n_packets, cap)`` packets; ``cap=0`` marks a task that takes
    no packet count.  ``render`` prints the merged result; without one
    the result is a :class:`~repro.analysis.results.Sweep` printed
    under ``title``.  ``group`` is the CLI name that selects the
    experiment together with the rest of its group.
    """

    task: str
    title: str = ""
    render: Optional[Callable[[Any], str]] = None
    over: Optional[Tuple[str, Iterable[Any]]] = None
    fixed: Dict[str, Any] = field(default_factory=dict)
    cap: Optional[int] = None
    group: Optional[str] = None

    def split(self, n_packets: int) -> List[Subtask]:
        """The ordered subtasks whose merged results equal the serial call."""
        kwargs = dict(self.fixed)
        if self.cap != 0:
            kwargs["n_packets"] = min(n_packets, self.cap or n_packets)
        if self.over is None:
            return [(self.task, kwargs)]
        param, values = self.over
        return [(self.task, {param: (value,), **kwargs}) for value in values]

    def show(self, result: Any) -> str:
        if self.render is None:
            return report.render_sweep(result, self.title)
        return self.render(result)


EXPERIMENTS: Dict[str, Experiment] = {
    # Table 1's measured column re-runs the Fig. 3 sweeps, capped.
    "table1": Experiment(
        "measured_degradations", render=report.render_table1, cap=1000
    ),
    "fig1": Experiment(
        "fig1_behavior_shares", render=report.render_behavior_shares,
        over=("nfs", exp.BEHAVIOR_OF),
    ),
    "table2": Experiment(
        "table2_results", render=report.render_components, cap=0
    ),
    "fig3a": Experiment(
        "fig3a_skiplist_lookup", "Fig. 3(a): skip-list KV lookup",
        over=("loads", exp.SKIPLIST_LOADS),
    ),
    "fig3b": Experiment(
        "fig3b_skiplist_update_delete",
        "Fig. 3(b): skip-list KV update/delete",
        over=("loads", exp.SKIPLIST_LOADS),
    ),
    # The cuckoo load sweeps are one subtask each: they fill one table
    # through every load factor, each point topping up the last, which
    # is far cheaper than a fresh fill per point.
    "fig3c": Experiment(
        "fig3c_cuckoo_switch", "Fig. 3(c): CuckooSwitch vs load"
    ),
    "fig3d": Experiment(
        "fig3d_nitrosketch", "Fig. 3(d): NitroSketch vs update probability",
        over=("probs", exp.NITRO_PROBS),
    ),
    "fig3e": Experiment(
        "fig3e_countmin", "Fig. 3(e): Count-min vs #hashes",
        over=("depths", exp.COUNTMIN_DEPTHS),
    ),
    "fig3f": Experiment(
        "fig3f_timewheel", "Fig. 3(f): time wheel vs granularity",
        over=("tick_ns_values", exp.TIMEWHEEL_TICKS_NS),
    ),
    "fig3g": Experiment(
        "fig3g_cuckoo_filter", "Fig. 3(g): cuckoo filter vs load"
    ),
    "fig3h": Experiment(
        "fig3h_eiffel", "Fig. 3(h): Eiffel cFFS vs levels",
        over=("levels", exp.EIFFEL_LEVELS),
    ),
    **{
        nf: Experiment("other_nf", nf, fixed={"name": nf}, group="others")
        for nf in exp.OTHER_NFS
    },
    "fig45": Experiment(
        "fig4_fig5_latency", render=report.render_latency,
        over=("nfs", exp.LATENCY_NFS), cap=500,
    ),
    "fig6": Experiment(
        "fig6_interface_comparison", render=report.render_interfaces, cap=0
    ),
    "fig7": Experiment(
        "fig7_apps", render=report.render_apps, over=("apps", IR_APP_NAMES)
    ),
    # One subtask per steering policy; each streams its own Zipf trace.
    "multicore": Experiment(
        "multicore_steering", render=report.render_steering,
        over=("policies", exp.STEERING_POLICIES),
    ),
}


def cli_names() -> Dict[str, List[str]]:
    """CLI name -> the experiments it selects, both in report order."""
    names: Dict[str, List[str]] = {}
    for name, experiment in EXPERIMENTS.items():
        names.setdefault(experiment.group or name, []).append(name)
    return names
