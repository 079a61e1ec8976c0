"""Command-line report generator: ``python -m repro.analysis``.

Runs the experiments of :mod:`repro.analysis.registry` and prints
every paper table/figure in text form, in report order:

    python -m repro.analysis                   # everything, default size
    python -m repro.analysis --only fig3e fig7 # or "others": the §6.2 NFs
    python -m repro.analysis --packets 5000    # heavier workloads
    python -m repro.analysis --jobs auto       # fan sweep points across CPUs
    python -m repro.analysis --no-cache        # recompute everything
    python -m repro.analysis --paper-check     # headline metrics vs the paper

Results are cached on disk (keyed by experiment, parameters, and the
cost-model fingerprint), so repeat runs skip already-computed points;
``--no-cache`` bypasses the cache and ``--clear-cache`` empties it.
Flags a run would not read (``--only`` with ``--paper-check``, which
checks everything, or with ``--clear-cache``) are usage errors.
"""

from __future__ import annotations

import argparse
import sys
import time

from .parallel import ResultCache, run_experiments
from .registry import EXPERIMENTS, cli_names


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
    figures = cli_names()
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Reproduce the eNetSTL evaluation tables and figures.",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        choices=sorted(figures),
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

    store = ResultCache(args.cache_dir)
    used = args.clear_cache or not args.no_cache
    if used and store.root.exists() and not store.root.is_dir():
        parser.error(f"cache directory {store.root} exists and is not a directory")
    if args.clear_cache:
        for flag, given in (("--only", args.only),
                            ("--paper-check", args.paper_check)):
            if given:
                parser.error(f"{flag}: not read with --clear-cache (it "
                             "empties the cache and exits)")
        print(f"cleared {store.clear()} cached result(s)")
        return 0
    if args.paper_check and args.only:
        parser.error("--only: not read under --paper-check (it checks "
                     "every experiment)")
    cache = None if args.no_cache else store
    if args.paper_check:
        from .paper_targets import check_all, render_check

        results = check_all(
            n_packets=args.packets, jobs=args.jobs, cache=cache,
            retries=args.retries,
        )
        print(render_check(results))
        return 0 if all(r.ok for r in results) else 1

    # A name given twice runs and prints once.
    selected = list(dict.fromkeys(args.only or figures))
    exp_names = [exp_name for name in selected for exp_name in figures[name]]
    start = time.time()
    results = run_experiments(
        exp_names, n_packets=args.packets, jobs=args.jobs, cache=cache,
        retries=args.retries,
    )
    for i, name in enumerate(selected):
        if i:
            print()
        for exp_name in figures[name]:
            print(EXPERIMENTS[exp_name].show(results[exp_name]))
    footer = f"\n[{len(selected)} experiment(s) in {time.time() - start:.1f}s"
    if cache is not None:
        footer += f"; cache: {cache.hits} hit(s), {cache.misses} miss(es)"
    print(footer + "]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
