"""Smoke tests for the CLI report generator (python -m repro.analysis)."""

import pytest

from repro.analysis.__main__ import RUNNERS, main


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

    def test_zero_retries_accepted(self, capsys):
        assert main(["--only", "fig3e", "--packets", "200", "--no-cache",
                     "--retries", "0"]) == 0
        assert "Count-min" in capsys.readouterr().out

    def test_runner_registry_covers_all_figures(self):
        expected = {
            "table1", "table2", "fig1", "fig3a", "fig3b", "fig3c", "fig3d",
            "fig3e", "fig3f", "fig3g", "fig3h", "others", "fig45", "fig6",
            "fig7", "fig7ir", "multicore",
        }
        assert set(RUNNERS) == expected
