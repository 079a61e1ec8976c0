"""Tests for the chaos harness CLI (python -m repro.faults)."""

import json

import pytest

from repro.faults.__main__ import main
from repro.net.flowgen import FlowGenerator
from repro.net.trace import dump_trace

QUICK = ["--packets", "2000", "--cores", "4", "--flows", "128"]


@pytest.fixture()
def trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    dump_trace(
        FlowGenerator(n_flows=128, seed=5, distribution="zipf").trace(1500),
        path,
    )
    return str(path)


class TestChaosRuns:
    def test_synthetic_run_accounts_and_exits_zero(self, capsys):
        assert main(QUICK + ["--rate", "0.01", "--expect-faults"]) == 0
        out = capsys.readouterr().out
        assert "chaos replay: 2000 packets" in out
        assert "accounting: OK" in out
        assert "injected" in out

    def test_trace_file_run(self, trace_csv, capsys):
        assert main([trace_csv, "--cores", "4", "--rate", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "chaos replay: 1500 packets" in out

    def test_zero_rate_injects_nothing(self, capsys):
        assert main(QUICK + ["--rate", "0"]) == 0
        out = capsys.readouterr().out
        assert "injected" not in out
        assert "accounting: OK" in out

    def test_expect_faults_fails_on_zero_rate(self, capsys):
        assert main(QUICK + ["--rate", "0", "--expect-faults"]) == 1
        assert "expected injected faults" in capsys.readouterr().err

    def test_crash_run_reports_watchdog(self, capsys):
        assert main(QUICK + ["--crash-core", "1", "--crash-at", "100"]) == 0
        out = capsys.readouterr().out
        assert "core 1 crash" in out
        assert "re-steered" in out
        assert "accounting: OK" in out

    def test_wedge_run_reports_watchdog(self, capsys):
        argv = QUICK + [
            "--wedge-core", "0", "--wedge-at", "50",
            "--watchdog-deadline", "128",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "core 0 wedge" in out
        assert "accounting: OK" in out

    def test_json_report(self, capsys):
        assert main(QUICK + ["--rate", "0.01", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        acc = report["accounting"]
        assert report["accounted"] is True
        assert (
            acc["packets_in"] + acc["duplicated"]
            == acc["forwarded"] + acc["dropped"] + acc["aborted"]
        )
        assert report["total_injected"] > 0

    def test_same_seed_same_report(self, capsys):
        argv = QUICK + ["--rate", "0.02", "--seed", "9", "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second

    @pytest.mark.parametrize("nf", ["countmin", "bloom", "maglev", "flow_monitor"])
    def test_every_nf_survives_chaos(self, nf, capsys):
        argv = ["--packets", "1000", "--cores", "2", "--flows", "64",
                "--rate", "0.05", "--nf", nf]
        assert main(argv) == 0
        assert "accounting: OK" in capsys.readouterr().out


class TestChaosCliErrors:
    def test_unreadable_trace_exits_one(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_all_cores_dead_is_a_clean_failure(self, capsys):
        argv = ["--packets", "500", "--cores", "1", "--crash-core", "0"]
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--rate", "1.5"],
        ["--rate", "lots"],
        ["--cores", "0"],
        ["--batch-size", "-4"],
        ["--watchdog-deadline", "0"],
        ["--nf", "teleport"],
        ["--policy", "magic"],
    ])
    def test_bad_arguments_exit_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, hint", [
        (["--crash-core", "9"], "crash_core=9 names a nonexistent core"),
        (["--wedge-core", "8"], "wedge_core=8 names a nonexistent core"),
        (["--crash-at", "-1"], "crash_at must be non-negative"),
        (["--wedge-at", "-1"], "wedge_at must be non-negative"),
        (["--crash-core", "2", "--wedge-core", "2"],
         "cannot both crash and wedge"),
    ])
    def test_bad_fault_plan_exits_two(self, argv, hint, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--packets", "200", "--cores", "8"] + argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert hint in err
        assert "Traceback" not in err


class TestLatencyAndSloFlags:
    def test_burst_adds_latency_to_json(self, capsys):
        argv = QUICK + ["--rate", "0", "--burst", "4e6", "--json"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["accounted"] is True
        latency = report["latency"]
        assert latency["n"] == 2000
        assert latency["p50_us"] <= latency["p99_us"]
        assert report["overflow"] == 0

    def test_burst_with_crash_stays_accounted(self, capsys):
        argv = QUICK + [
            "--rate", "0", "--burst", "8e6", "--crash-core", "1",
            "--crash-at", "100", "--json",
        ]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["accounted"] is True
        assert report["failures"][0]["kind"] == "crash"

    def test_detection_mean_changes_wedge_loss(self, capsys):
        def lost(extra):
            argv = QUICK + [
                "--rate", "0", "--wedge-core", "0", "--wedge-at", "50",
                "--json",
            ] + extra
            assert main(argv) == 0
            report = json.loads(capsys.readouterr().out)
            return report["failures"][0]["lost"]

        fixed = lost(["--watchdog-deadline", "1024"])
        probabilistic = lost(["--detection-mean", "100"])
        assert probabilistic != fixed

    def test_repack_flag_marks_failure(self, capsys):
        argv = QUICK + [
            "--rate", "0", "--policy", "ntuple", "--repack",
            "--crash-core", "1", "--crash-at", "100", "--json",
        ]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["failures"][0]["repacked"] is True

    def test_autoscale_recovery_scenario_exits_zero(self, capsys):
        argv = [
            "--packets", "12000", "--flows", "256",
            "--cores", "4", "--initial-cores", "2",
            "--rate", "0",
            "--crash-core", "1", "--crash-at", "1500",
            "--burst", "9e6", "--slo-p99", "60",
            "--autoscale", "--expect-recovery", "--json",
        ]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["accounted"] is True
        assert report["slo"]["violating_epochs"]
        assert report["slo"]["recovery_s"] is not None
        assert any(
            e.startswith("scale-up")
            for epoch in report["timeline"] for e in epoch["events"]
        )

    def test_autoscale_json_deterministic(self, capsys):
        argv = QUICK + [
            "--rate", "0", "--burst", "6e6", "--slo-p99", "80",
            "--autoscale", "--json", "--seed", "7",
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == first

    @pytest.mark.parametrize("argv, hint", [
        (["--slo-p99", "60"], "--slo-p99 needs --burst"),
        (["--autoscale", "--burst", "1e6"], "--autoscale needs"),
        (["--burst", "1e6", "--slo-p99", "60", "--initial-cores", "2"],
         "--initial-cores"),
        (["--expect-recovery"], "--expect-recovery needs --autoscale"),
        (["--burst", "garbage"], "burst spec"),
        (["--detection-mean", "0"], "positive"),
    ])
    def test_flag_validation_exits_two(self, argv, hint, capsys):
        with pytest.raises(SystemExit) as exc:
            main(QUICK + argv)
        assert exc.value.code == 2
        assert hint in capsys.readouterr().err
