"""``python -m repro.apps`` argument validation and a smallest run."""

import pytest

from repro.apps.__main__ import main


@pytest.mark.parametrize("argv, hint", [
    (["--packets", "0"], "--packets must be at least 1"),
    (["--packets", "-5"], "--packets must be at least 1"),
    (["--packets", "many"], "--packets takes an integer"),
    (["--flows", "0"], "--flows must be at least 1"),
    (["--cores", "0"], "--cores must be at least 1"),
    (["--cores", "-3"], "--cores must be at least 1"),
])
def test_sizes_below_one_exit_two(argv, hint, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--app", "katran"] + argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert hint in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cores", ["1", "2"])
def test_one_packet_one_flow_runs(cores, capsys):
    argv = ["--app", "katran", "--packets", "1", "--flows", "1",
            "--cores", cores]
    assert main(argv) == 0
    assert f"x{cores}]" in capsys.readouterr().out
