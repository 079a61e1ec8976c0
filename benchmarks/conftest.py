"""Shared benchmark plumbing.

Every bench runs its experiment once per round (the workloads are
deterministic, so more iterations only re-measure Python overhead) and
asserts its reproduction bands through the repo-wide ``in_band``
fixture.  ``python -m repro.analysis`` prints the paper-style tables;
only the ablation and extension benches, which the report does not
cover, print their own.
"""

import pytest


@pytest.fixture
def run_once(benchmark):
    """Run ``fn`` through pytest-benchmark with one warm round."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=3, iterations=1, warmup_rounds=0)

    return runner
