"""Tests for the data-plane replay CLI (python -m repro.net.replay).

Trace, steering, NUMA and latency flags, the plumbing from flags to the
dispatcher and controller, flags a run would ignore, and fault flags
combined with them.  The fault-injection flags
on their own are covered in ``tests/faults/test_chaos_cli.py``.
"""

import json

import pytest

from repro.ebpf.cost_model import ExecMode, NumaTopology
from repro.ebpf.runtime import BpfRuntime
from repro.faults import FaultPlan, WedgeDetection
from repro.net.flowgen import FlowGenerator
from repro.net.multicore import RssDispatcher
from repro.net.queueing import ArrivalProcess, QueueingConfig
from repro.net.replay import main, parse_args, replay, report
from repro.net.slo import SloConfig
from repro.net.trace import dump_trace
from repro.nfs import CountMinNF
from repro.nfs.degrade import ColdStartWarmup


def _replay(*argv):
    return replay(*parse_args(list(argv)))


@pytest.fixture()
def trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    dump_trace(
        FlowGenerator(n_flows=128, seed=5, distribution="zipf").trace(2000),
        path,
    )
    return str(path)


class TestReplayFunction:
    @pytest.mark.parametrize("policy", ["rss", "rekey", "ntuple"])
    def test_policies_accepted(self, trace_csv, policy):
        result = _replay(trace_csv, "--cores", "4", "--policy", policy)
        assert result.n_packets == 2000

    def test_numa_nodes(self, trace_csv):
        local = _replay(trace_csv, "--cores", "4")
        remote = _replay(trace_csv, "--cores", "4", "--numa-nodes", "2")
        assert remote.total_cycles == local.total_cycles
        assert remote.total_numa_cycles > 0


class TestCli:
    def test_basic_invocation(self, trace_csv, capsys):
        assert main([trace_csv, "--cores", "4"]) == 0
        out = capsys.readouterr().out
        assert "replayed 2000 packets on 4 core(s)" in out
        assert "imbalance" in out
        assert "accounting: OK" in out
        assert "injected" not in out

    def test_policy_flag_reported(self, trace_csv, capsys):
        assert main([trace_csv, "--policy", "ntuple"]) == 0
        assert "policy=ntuple" in capsys.readouterr().out

    def test_numa_flag_prints_penalty(self, trace_csv, capsys):
        assert main([trace_csv, "--numa-nodes", "2"]) == 0
        assert "numa cycles" in capsys.readouterr().out

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_trace_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,trace\n")
        assert main([str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_policy_rejected_by_argparse(self, trace_csv):
        with pytest.raises(SystemExit):
            main([trace_csv, "--policy", "magic"])

    @pytest.mark.parametrize("argv", [
        ["--cores", "0"],
        ["--cores", "-2"],
        ["--cores", "four"],
        ["--batch-size", "0"],
        ["--numa-nodes", "-3"],
        ["--numa-nodes", "1.5"],
    ])
    def test_invalid_numeric_args_exit_nonzero(self, trace_csv, argv, capsys):
        """Bad --cores/--batch-size/--numa-nodes: clean argparse error,
        not a traceback."""
        with pytest.raises(SystemExit) as exc:
            main([trace_csv] + argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "positive integer" in err or "is not an integer" in err


class TestLatencyFlags:
    def test_burst_adds_latency_lines(self, trace_csv, capsys):
        assert main([trace_csv, "--cores", "4", "--burst", "4e6"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out
        assert "p99" in out
        assert "overflow" in out

    def test_burst_json_report(self, trace_csv, capsys):
        assert main(
            [trace_csv, "--cores", "4", "--burst", "4e6", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["burst"] == "4e6"
        latency = report["latency"]
        assert latency["n"] == 2000
        assert latency["p50_us"] <= latency["p99_us"]
        assert report["overflow"] == 0

    def test_slo_verdict_met(self, trace_csv, capsys):
        assert main(
            [trace_csv, "--cores", "4", "--burst", "2e6",
             "--slo-p99", "500", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["slo"]["target_p99_us"] == 500.0
        assert report["slo"]["met"] is True

    def test_autoscale_loop_reports_timeline(self, trace_csv, capsys):
        assert main(
            [trace_csv, "--cores", "4", "--initial-cores", "2",
             "--burst", "4e6", "--slo-p99", "100", "--autoscale",
             "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["autoscale"] is True
        assert report["initial_cores"] == 2
        assert report["accounted"] is True
        assert len(report["timeline"]) >= 1
        assert "recovery_s" in report["slo"]

    def test_same_seed_same_json(self, trace_csv, capsys):
        argv = [trace_csv, "--cores", "4", "--burst", "8e6", "--json",
                "--seed", "3"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("argv, hint", [
        (["--slo-p99", "60"], "--slo-p99 needs --burst"),
        (["--autoscale", "--burst", "1e6"], "--autoscale needs"),
        (["--burst", "1e6", "--slo-p99", "60", "--initial-cores", "2"],
         "--initial-cores"),
        (["--burst", "1e6", "--slo-p99", "60", "--autoscale",
          "--initial-cores", "9"], "exceeds --cores"),
        (["--burst", "nope"], "burst spec"),
        (["--burst", "1e6:2e6"], "burst spec"),
        (["--burst", "1e6", "--slo-p99", "-5"], "positive"),
        # The wedge-detection model is built at argument time.
        (["--detection-mean", "5", "--wedge-core", "2", "--wedge-at", "10",
          "--cores", "4"], "mean_packets (5) must be >= min_packets (64)"),
    ])
    def test_flag_validation_exits_two(self, trace_csv, argv, hint, capsys):
        with pytest.raises(SystemExit) as exc:
            main([trace_csv] + argv)
        assert exc.value.code == 2
        assert hint in capsys.readouterr().err


class TestPlumbing:
    """``main`` builds what a caller building the fleet directly would."""

    def _main_json(self, argv, capsys):
        assert main(argv + ["--json"]) == 0
        return json.loads(capsys.readouterr().out)

    @staticmethod
    def _factory(core):
        return CountMinNF(BpfRuntime(mode=ExecMode.ENETSTL, seed=core), depth=4)

    @staticmethod
    def _stamped(n_packets, n_flows, spec, seed):
        trace = FlowGenerator(
            n_flows=n_flows, distribution="zipf", seed=seed + 1
        ).iter_trace(n_packets)
        return ArrivalProcess.from_spec(spec, seed=seed).stamp(trace)

    def test_fixed_fleet_chaos_matches_direct_dispatcher(self, capsys):
        argv = [
            "--packets", "1500", "--flows", "128", "--cores", "4",
            "--policy", "ntuple", "--repack", "--rate", "0.02",
            "--seed", "3", "--crash-core", "2", "--crash-at", "200",
            "--burst", "8e6", "--slo-p99", "80",
        ]
        got = self._main_json(argv, capsys)
        dispatcher = RssDispatcher(
            self._factory,
            n_cores=4,
            steering="ntuple",
            faults=FaultPlan.uniform(
                0.02, seed=3, crash_core=2, crash_at=200
            ),
            queueing=QueueingConfig(),
            repack_on_failure=True,
        )
        run = dispatcher.run(self._stamped(1500, 128, "8e6", 3))
        args, _ = parse_args(argv)
        assert got == json.loads(json.dumps(report(run, args)))
        assert got["total_injected"] > 0
        assert got["failures"][0]["repacked"] is True

    def test_autoscale_matches_direct_controller(self, capsys):
        argv = [
            "--packets", "4000", "--flows", "256", "--cores", "4",
            "--initial-cores", "2", "--rate", "0.01", "--seed", "5",
            "--wedge-core", "1", "--wedge-at", "300",
            "--detection-mean", "200", "--burst", "9e6",
            "--slo-p99", "60", "--autoscale",
        ]
        got = self._main_json(argv, capsys)
        dispatcher = RssDispatcher(
            self._factory,
            n_cores=4,
            queueing=QueueingConfig(),
            faults=FaultPlan.uniform(
                0.01, seed=5, wedge_core=1, wedge_at=300
            ),
            detection=WedgeDetection(mean_packets=200, seed=5),
            slo=SloConfig(target_p99_us=60, initial_cores=2,
                          warmup=ColdStartWarmup()),
        )
        run = dispatcher.run(self._stamped(4000, 256, "9e6", 5))
        args, _ = parse_args(argv)
        assert got == json.loads(json.dumps(report(run, args)))
        assert got["failures"][0]["kind"] == "wedge"

    def test_autoscale_imbalance_counts_only_cores_that_served(self, capsys):
        """Core 3 is never activated by the SLO loop and serves no
        packet, so the imbalance mean is over cores 0-2 (over all four
        it would read 3.061)."""
        got = self._main_json([
            "--packets", "4000", "--flows", "256", "--cores", "4",
            "--initial-cores", "2", "--rate", "0.01", "--seed", "5",
            "--wedge-core", "1", "--wedge-at", "300",
            "--detection-mean", "200", "--burst", "9e6",
            "--slo-p99", "60", "--autoscale",
        ], capsys)
        assert got["per_core_packets"] == [2809, 301, 558, 0]
        assert all(3 not in e["active_cores"] for e in got["timeline"])
        assert got["imbalance"] == 2.296

    def test_autoscale_ntuple_numa_matches_direct_dispatcher(self, capsys):
        argv = ["--packets", "2000", "--flows", "128", "--cores", "4",
                "--policy", "ntuple", "--numa-nodes", "2", "--burst", "8e6",
                "--slo-p99", "60", "--autoscale"]
        got = self._main_json(argv, capsys)
        run = RssDispatcher(
            self._factory,
            n_cores=4,
            steering="ntuple",
            numa=NumaTopology(n_nodes=2),
            faults=FaultPlan.uniform(0.0, seed=0),
            queueing=QueueingConfig(),
            slo=SloConfig(target_p99_us=60, warmup=ColdStartWarmup()),
        ).run(self._stamped(2000, 128, "8e6", 0))
        args, _ = parse_args(argv)
        assert got == json.loads(json.dumps(report(run, args)))
        assert got["numa_cycles"] > 0 and got["accounted"] is True


class TestFaultFlagCombinations:
    def test_faults_on_a_trace_file_with_numa(self, trace_csv, capsys):
        argv = [trace_csv, "--cores", "4", "--rate", "0.05", "--json"]
        assert main(argv + ["--numa-nodes", "2"]) == 0
        remote = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        local = json.loads(capsys.readouterr().out)
        assert remote["accounted"] is True
        assert remote["total_injected"] > 0
        assert remote["numa_cycles"] > 0 == local["numa_cycles"]
        for key in ("total_cycles", "accounting", "injected", "errors"):
            assert remote[key] == local[key]

    def test_flow_monitor_without_faults(self, trace_csv, capsys):
        argv = [trace_csv, "--cores", "4", "--nf", "flow_monitor", "--json"]
        assert main(argv) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["accounted"] is True
        assert rep["injected"] == {} and rep["errors"] == {}
        assert rep["accounting"]["packets_in"] == 2000
        assert rep["accounting"]["aborted"] == 0

    def test_expect_faults_at_zero_rate_exits_one(self, trace_csv, capsys):
        argv = [trace_csv, "--cores", "4", "--expect-faults", "--rate", "0"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "accounting: OK" in captured.out
        assert captured.err == "error: expected injected faults, saw none\n"

    def test_expect_faults_under_autoscale(self, capsys):
        """The SLO run reports the fault ledger of every session it
        built, so ``--expect-faults`` holds under ``--autoscale``."""
        argv = ["--packets", "3000", "--cores", "4", "--burst", "6e6",
                "--slo-p99", "80", "--autoscale", "--rate", "0.05",
                "--expect-faults", "--json"]
        assert main(argv) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["autoscale"] is True and rep["accounted"] is True
        assert rep["total_injected"] == sum(rep["injected"].values()) > 0
        assert sum(rep["errors"].values()) == rep["accounting"]["aborted"] > 0

    def test_expect_faults_under_autoscale_at_zero_rate_exits_one(
        self, capsys
    ):
        argv = ["--packets", "3000", "--cores", "4", "--burst", "6e6",
                "--slo-p99", "80", "--autoscale", "--rate", "0",
                "--expect-faults"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "accounting: OK" in captured.out
        assert captured.err == "error: expected injected faults, saw none\n"


class TestIgnoredFlags:
    """A flag the run would not read is a usage error, not a silent
    no-op."""

    AUTOSCALE = ["--packets", "500", "--burst", "6e6", "--slo-p99", "80",
                 "--autoscale"]

    def test_repack_under_autoscale_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.AUTOSCALE + ["--repack"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--repack: not read under --autoscale" in err
        assert "the SLO loop always re-packs" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("policy", [[], ["--policy", "rss"],
                                        ["--policy", "rekey"]])
    def test_repack_without_a_table_policy_exits_two(self, policy, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--packets", "500", "--crash-core", "1", "--repack"]
                 + policy)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "has no table to re-pack (only ntuple does)" in err
        assert "Traceback" not in err


class TestAutoscaleFleetFlags:
    """The SLO loop runs on the one dispatcher, so the fixed fleet's
    steering and NUMA flags work under ``--autoscale`` too."""

    AUTOSCALE = ["--packets", "3000", "--cores", "4", "--burst", "6e6",
                 "--slo-p99", "80", "--autoscale", "--crash-core", "1",
                 "--crash-at", "300", "--json"]

    @pytest.mark.parametrize("flag", [
        ["--policy", "ntuple"],
        ["--policy", "rss"],
        ["--numa-nodes", "2"],
        ["--numa-nodes", "1"],
        ["--policy", "rekey"],
    ])
    def test_fixed_fleet_flag_runs_under_autoscale(self, flag, capsys):
        assert main(self.AUTOSCALE + flag) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["autoscale"] is True and rep["accounted"] is True
        assert rep["timeline"]
        [failure] = rep["failures"]
        assert failure["kind"] == "crash" and failure["lost"] == 0
        if flag[0] == "--policy":
            assert rep["policy"] == flag[1]
        else:
            assert rep["numa_nodes"] == int(flag[1])
            assert (rep["numa_cycles"] > 0) == (flag[1] == "2")
