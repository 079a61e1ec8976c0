"""The ``paper-check`` workload: ``python -m repro.analysis
--paper-check`` as a user runs it, serially and without the on-disk
result cache.

It is the only workload that runs the eNetSTL library model
(``repro.core`` memory wrapper, ``repro.nfs``, ``repro.datastructs``,
``CostModel.charge``); it never touches the IR, fusion or the
dispatcher.  Its experiments use fixed seeds, so the benchmark seed
does not change its inputs.  Set-up is the import of the analysis
stack, which every CLI invocation pays.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.paper_targets import CheckResult, check_all

from spec import Clock, Workload, digest

#: Packets per experiment point.  200 is the smallest count at which
#: every headline metric lands in its band (at 100, fig3f drops out).
PAPER_PACKETS = 200

#: Packets ``check_all`` replays through ``XdpPipeline.run`` at
#: ``PAPER_PACKETS`` (warm-up included); the traced run re-counts them
#: and fails when they differ.
PAPER_REPLAYED_PACKETS = 25_800


class SubtaskClock(Clock):
    """Stands in for the result cache: it never hits, and it marks the
    wall clock each time an experiment subtask (one sweep point) lands,
    so each subtask is one chunk.  The last chunk holds the checks that
    run after the experiments (Table 2, Fig. 6, the survey).
    """

    def get(self, key: str):
        return False, None

    def put(self, key: str, value) -> None:
        self.mark()


def paper_inputs(seed: int) -> Dict:
    return {}


def paper_build(seed: int, backend: str) -> None:
    return None


def paper_replay(fleet, inputs: Dict, clock: SubtaskClock) -> List[CheckResult]:
    results = check_all(n_packets=PAPER_PACKETS, jobs=1, cache=clock)
    clock.end()
    return results


def paper_outcome(fleet, results: List[CheckResult]) -> Dict:
    in_band = sum(1 for r in results if r.ok)
    return {
        "witness": {
            "checks": digest([
                (r.target.experiment, r.target.metric, r.measured, r.ok)
                for r in results
            ]),
        },
        "packets": PAPER_REPLAYED_PACKETS,
        "ops": len(results),
        "model": {
            "paper_in_band": in_band,
            "paper_checks": len(results),
        },
    }


WORKLOADS = {
    "paper-check": Workload(
        paper_inputs, paper_build, paper_replay, paper_outcome,
        clock=SubtaskClock, parity_packets=0,
    ),
}
