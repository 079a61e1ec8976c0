"""Smoke tests for the CLI report generator (python -m repro.analysis)."""

import pytest

from repro.analysis.__main__ import main
from repro.analysis.parallel import TASK_FNS
from repro.analysis.registry import EXPERIMENTS, cli_names


class TestCli:
    def test_selected_experiments_run(self, capsys):
        assert main(["--only", "fig3e", "fig6", "--packets", "300"]) == 0
        out = capsys.readouterr().out
        assert "Count-min" in out
        assert "degradation" in out
        assert "experiment(s)" in out

    def test_table_experiments(self, capsys):
        assert main(["--only", "table2", "--packets", "200"]) == 0
        out = capsys.readouterr().out
        assert "random_pool" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["--only", "fig99"])

    @pytest.mark.parametrize("argv", [
        ["--paper-check", "--no-cache", "--packets", "0"],
        ["--paper-check", "--no-cache", "--packets", "-5"],
        ["--only", "fig3e", "--packets", "0"],
        ["--only", "fig3e", "--packets", "many"],
        ["--only", "fig3e", "--retries", "-1"],
        ["--only", "fig3e", "--retries", "1.5"],
    ])
    def test_bad_counts_rejected_up_front(self, argv, capsys, monkeypatch):
        import repro.analysis.__main__ as cli

        def never(*args, **kwargs):
            raise AssertionError("experiments ran despite a bad argument")

        monkeypatch.setattr(cli, "run_experiments", never)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        flag = argv[-2]
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["--paper-check", "--only", "fig3e", "--no-cache",
          "--packets", "200"], "--only"),
        (["--clear-cache", "--only", "fig3e"], "--only"),
        (["--clear-cache", "--paper-check"], "--paper-check"),
    ], ids=["only-paper-check", "clear-only", "clear-paper-check"])
    def test_flags_a_run_would_ignore_rejected(
        self, argv, flag, tmp_path, capsys, monkeypatch
    ):
        import repro.analysis.__main__ as cli
        from repro.analysis import paper_targets

        def never(*args, **kwargs):
            raise AssertionError("experiments ran despite an ignored flag")

        monkeypatch.setattr(cli, "run_experiments", never)
        monkeypatch.setattr(paper_targets, "check_all", never)
        kept = tmp_path / "entry.pkl"
        kept.write_bytes(b"")
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--cache-dir", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: {flag}: not read" in err
        assert "Traceback" not in err
        assert kept.exists()  # --clear-cache cleared nothing

    @pytest.mark.parametrize("names, title, misses", [
        (["fig3e", "fig3e"], "== Fig. 3(e)", 5),
        (["others", "others"], "== efd ", 4),
    ], ids=["fig3e", "others"])
    def test_repeated_name_runs_and_prints_once(
        self, names, title, misses, tmp_path, capsys
    ):
        assert main(["--only", *names, "--packets", "200",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count(title) == 1
        assert "[1 experiment(s) in" in out
        assert f"0 hit(s), {misses} miss(es)]" in out

    def test_zero_retries_accepted(self, capsys):
        assert main(["--only", "fig3e", "--packets", "200", "--no-cache",
                     "--retries", "0"]) == 0
        assert "Count-min" in capsys.readouterr().out

    def test_runner_registry_covers_all_figures(self):
        expected = {
            "table1", "table2", "fig1", "fig3a", "fig3b", "fig3c", "fig3d",
            "fig3e", "fig3f", "fig3g", "fig3h", "others", "fig45", "fig6",
            "fig7", "multicore",
        }
        figures = cli_names()
        assert set(figures) == expected
        assert figures["others"] == ["efd", "tss", "heavykeeper", "vbf"]
        for name in figures:
            for exp_name in figures[name]:
                experiment = EXPERIMENTS[exp_name]
                # Computes: a registered task with a non-empty plan ...
                assert experiment.task in TASK_FNS
                assert experiment.split(200)
                # ... and renders: its own renderer or a sweep title.
                assert experiment.render is not None or experiment.title


class TestCacheFailures:
    @pytest.mark.parametrize("extra", [[], ["--clear-cache"]],
                             ids=["run", "clear"])
    def test_cache_dir_that_is_a_file_rejected(
        self, extra, tmp_path, capsys, monkeypatch
    ):
        import repro.analysis.__main__ as cli

        def never(*args, **kwargs):
            raise AssertionError("experiments ran despite a bad --cache-dir")

        monkeypatch.setattr(cli, "run_experiments", never)
        not_a_dir = tmp_path / "cache"
        not_a_dir.write_text("")
        with pytest.raises(SystemExit) as exc:
            main(["--only", "table2", "--cache-dir", str(not_a_dir), *extra])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "not a directory" in captured.err
        assert "Traceback" not in captured.err
        assert "cleared" not in captured.out

    def test_failed_cache_write_neither_reruns_nor_fails(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.analysis import parallel

        calls = []
        real = parallel.TASK_FNS["table2_results"]

        def counted(**kwargs):
            calls.append(kwargs)
            return real(**kwargs)

        def refuse(self, key, value):
            raise OSError("disk full")

        monkeypatch.setitem(parallel.TASK_FNS, "table2_results", counted)
        monkeypatch.setattr(parallel.ResultCache, "put", refuse)
        with pytest.warns(RuntimeWarning, match="disk full"):
            code = main(["--only", "table2", "--cache-dir", str(tmp_path)])
        assert code == 0
        assert len(calls) == 1
        assert "random_pool" in capsys.readouterr().out


class TestPaperCheckRetries:
    def test_cli_passes_retries_to_check_all(self, capsys, monkeypatch):
        from repro.analysis import paper_targets

        seen = {}

        def fake_check_all(**kwargs):
            seen.update(kwargs)
            return []

        monkeypatch.setattr(paper_targets, "check_all", fake_check_all)
        assert main(["--paper-check", "--no-cache", "--retries", "3"]) == 0
        assert seen["retries"] == 3

    def test_check_all_passes_retries_to_the_runner(self, monkeypatch):
        from repro.analysis import parallel
        from repro.analysis.paper_targets import check_all

        class Stop(Exception):
            pass

        seen = {}

        def fake_run_experiments(names, **kwargs):
            seen.update(kwargs)
            raise Stop

        monkeypatch.setattr(parallel, "run_experiments", fake_run_experiments)
        with pytest.raises(Stop):
            check_all(n_packets=200, retries=0)
        assert seen["retries"] == 0
