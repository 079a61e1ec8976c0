"""Command-line report generator: ``python -m repro.analysis``.

Runs the full experiment suite and prints every paper table/figure in
text form.  Options select a subset, the workload size, and how the
matrix executes:

    python -m repro.analysis                   # everything, default size
    python -m repro.analysis --only fig3e fig7
    python -m repro.analysis --packets 5000    # heavier workloads
    python -m repro.analysis --jobs auto       # fan sweep points across CPUs
    python -m repro.analysis --no-cache        # recompute everything

Results are cached on disk (keyed by experiment, parameters, and the
cost-model fingerprint), so repeat runs skip already-computed points;
``--no-cache`` bypasses the cache and ``--clear-cache`` empties it.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import experiments as exp
from . import report
from .components import fig6_interface_comparison, table2_results
from .parallel import ResultCache, run_experiments
from .survey import measured_degradations

SWEEP_TITLES = {
    "fig3a": "Fig. 3(a): skip-list KV lookup",
    "fig3b": "Fig. 3(b): skip-list KV update/delete",
    "fig3c": "Fig. 3(c): CuckooSwitch vs load",
    "fig3d": "Fig. 3(d): NitroSketch vs update probability",
    "fig3e": "Fig. 3(e): Count-min vs #hashes",
    "fig3f": "Fig. 3(f): time wheel vs granularity",
    "fig3g": "Fig. 3(g): cuckoo filter vs load",
    "fig3h": "Fig. 3(h): Eiffel cFFS vs levels",
}

#: CLI names that fan out to several underlying experiments.
EXPAND = {"others": ("efd", "tss", "heavykeeper", "vbf")}


def _sweep_runner(fn, title):
    def run(n):
        print(report.render_sweep(fn(n_packets=n), title))

    return run


# Legacy serial runners (kept as the stable registry of experiment
# names; the CLI now computes through repro.analysis.parallel).
RUNNERS = {
    "table1": lambda n: print(
        report.render_table1(measured_degradations(n_packets=min(n, 1000)))
    ),
    "fig1": lambda n: print(
        report.render_behavior_shares(exp.fig1_behavior_shares(n_packets=n))
    ),
    "table2": lambda n: print(report.render_components(table2_results())),
    "fig3a": _sweep_runner(exp.fig3a_skiplist_lookup, SWEEP_TITLES["fig3a"]),
    "fig3b": _sweep_runner(exp.fig3b_skiplist_update_delete, SWEEP_TITLES["fig3b"]),
    "fig3c": _sweep_runner(exp.fig3c_cuckoo_switch, SWEEP_TITLES["fig3c"]),
    "fig3d": _sweep_runner(exp.fig3d_nitrosketch, SWEEP_TITLES["fig3d"]),
    "fig3e": _sweep_runner(exp.fig3e_countmin, SWEEP_TITLES["fig3e"]),
    "fig3f": _sweep_runner(exp.fig3f_timewheel, SWEEP_TITLES["fig3f"]),
    "fig3g": _sweep_runner(exp.fig3g_cuckoo_filter, SWEEP_TITLES["fig3g"]),
    "fig3h": _sweep_runner(exp.fig3h_eiffel, SWEEP_TITLES["fig3h"]),
    "others": lambda n: [
        print(report.render_sweep(exp.other_nf(nf, n_packets=n), f"{nf}"))
        for nf in ("efd", "tss", "heavykeeper", "vbf")
    ],
    "fig45": lambda n: print(
        report.render_latency(exp.fig4_fig5_latency(n_packets=min(n, 500)))
    ),
    "fig6": lambda n: print(report.render_interfaces(fig6_interface_comparison())),
    "fig7": lambda n: print(report.render_apps(exp.fig7_apps(n_packets=n))),
    "fig7ir": lambda n: print(
        report.render_apps_ir(exp.fig7_apps_ir(n_packets=n))
    ),
    "multicore": lambda n: print(
        report.render_steering(exp.multicore_steering(n_packets=n))
    ),
}

#: Experiment name -> renderer over a computed result object.
RENDERERS = {
    "table1": report.render_table1,
    "fig1": report.render_behavior_shares,
    "table2": report.render_components,
    "fig45": report.render_latency,
    "fig6": report.render_interfaces,
    "fig7": report.render_apps,
    "fig7ir": report.render_apps_ir,
    "multicore": report.render_steering,
}
for _name, _title in SWEEP_TITLES.items():
    RENDERERS[_name] = (
        lambda result, _t=_title: report.render_sweep(result, _t)
    )
for _nf in EXPAND["others"]:
    RENDERERS[_nf] = lambda result, _t=_nf: report.render_sweep(result, _t)


def _int_at_least(flag: str, lowest: int):
    """argparse type: an integer no smaller than ``lowest``."""

    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{flag} takes an integer")
        if number < lowest:
            raise argparse.ArgumentTypeError(f"{flag} must be at least {lowest}")
        return number

    return parse


def _jobs_arg(value: str):
    if value == "auto":
        return "auto"
    return _int_at_least("--jobs", 1)(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Reproduce the eNetSTL evaluation tables and figures.",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        choices=sorted(RUNNERS),
        help="run only these experiments (default: all)",
    )
    parser.add_argument(
        "--packets",
        type=_int_at_least("--packets", 1),
        default=2000,
        help="packets per measured configuration (default 2000)",
    )
    parser.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        metavar="N|auto",
        help="worker processes for the experiment matrix (default 1; "
        "'auto' = CPU count)",
    )
    parser.add_argument(
        "--retries",
        type=_int_at_least("--retries", 0),
        default=1,
        help="serial retries for failed subtasks before giving up "
        "(default 1; successes are cached either way, failures never)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every point, bypassing the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache directory (default $REPRO_CACHE_DIR or "
        "~/.cache/repro-analysis)",
    )
    parser.add_argument(
        "--clear-cache",
        action="store_true",
        help="empty the result cache and exit",
    )
    parser.add_argument(
        "--paper-check",
        action="store_true",
        help="compare every headline metric against the paper's value",
    )
    args = parser.parse_args(argv)

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    if args.clear_cache:
        removed = ResultCache(args.cache_dir).clear()
        print(f"cleared {removed} cached result(s)")
        return 0
    if args.paper_check:
        from .paper_targets import check_all, render_check

        results = check_all(n_packets=args.packets, jobs=args.jobs, cache=cache)
        print(render_check(results))
        return 0 if all(r.ok for r in results) else 1

    selected = args.only or list(RUNNERS)
    exp_names = []
    for name in selected:
        exp_names.extend(EXPAND.get(name, (name,)))
    start = time.time()
    results = run_experiments(
        exp_names, n_packets=args.packets, jobs=args.jobs, cache=cache,
        retries=args.retries,
    )
    for i, name in enumerate(selected):
        if i:
            print()
        for exp_name in EXPAND.get(name, (name,)):
            print(RENDERERS[exp_name](results[exp_name]))
    footer = f"\n[{len(selected)} experiment(s) in {time.time() - start:.1f}s"
    if cache is not None:
        footer += f"; cache: {cache.hits} hit(s), {cache.misses} miss(es)"
    print(footer + "]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
