"""Repo-wide pytest configuration.

Three jobs:

1. Make ``src/`` importable without an explicit ``PYTHONPATH`` so
   ``python -m pytest`` works from a bare checkout (CI and local runs
   that set ``PYTHONPATH=src`` are unaffected).
2. Enforce a **global per-test timeout** so a wedged test (infinite
   loop, deadlocked pool worker) fails loudly instead of hanging the
   whole suite.  Implemented with ``SIGALRM`` — no third-party plugin
   needed.  Configure via ``REPRO_TEST_TIMEOUT`` (seconds; ``0``
   disables).  On platforms without ``SIGALRM`` the timeout is a no-op.
3. The ``in_band`` fixture, which the tier-1 band tests and the
   ``benchmarks/`` suite share: it asserts that one experiment result
   meets every ``repro.analysis.paper_targets.TARGETS`` band of its
   experiment.
"""

from __future__ import annotations

import os
import signal
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "src"))

DEFAULT_TEST_TIMEOUT_S = 120


def _timeout_seconds() -> int:
    raw = os.environ.get("REPRO_TEST_TIMEOUT", "")
    try:
        return int(raw) if raw else DEFAULT_TEST_TIMEOUT_S
    except ValueError:
        return DEFAULT_TEST_TIMEOUT_S


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    seconds = _timeout_seconds()
    if seconds <= 0 or not hasattr(signal, "SIGALRM"):
        yield
        return

    def on_alarm(signum, frame):
        pytest.fail(
            f"{item.nodeid} exceeded the global {seconds}s test timeout "
            f"(set REPRO_TEST_TIMEOUT to adjust)",
            pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def in_band():
    """``in_band(name, result)``: ``result`` meets ``TARGETS[name]``."""
    from repro.analysis.paper_targets import check

    def assert_in_band(name, result):
        failing = [r.describe() for r in check(name, result) if not r.ok]
        assert not failing, "\n".join(failing)

    return assert_in_band
