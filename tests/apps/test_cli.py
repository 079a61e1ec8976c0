"""The Fig. 7 apps through the replay CLI (``python -m repro.net.replay
--nf katran|rakelimit|polycube|sketches``): argument validation, a
smallest run, and the fleet the CLI builds."""

import json

import pytest

from repro.apps.ir import IR_APP_NAMES, app_nf_factory
from repro.net.flowgen import FlowGenerator
from repro.net.multicore import RssDispatcher
from repro.net.replay import main


@pytest.mark.parametrize("argv, hint", [
    (["--packets", "0"], "must be a positive integer"),
    (["--packets", "-5"], "must be a positive integer"),
    (["--packets", "many"], "'many' is not an integer"),
    (["--flows", "0"], "must be a positive integer"),
    (["--cores", "0"], "must be a positive integer"),
    (["--cores", "-3"], "must be a positive integer"),
])
def test_sizes_below_one_exit_two(argv, hint, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--nf", "katran"] + argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[0]}: {hint}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cores", ["1", "2"])
def test_one_packet_one_flow_runs(cores, capsys):
    argv = ["--nf", "katran", "--packets", "1", "--flows", "1",
            "--cores", cores]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert f"replayed 1 packets on {cores} core(s) [nf=katran, " in out
    assert "accounting: OK" in out


@pytest.mark.parametrize("app", IR_APP_NAMES)
def test_mode_with_an_app_exits_two(app, capsys):
    """IR chains do not read ``ExecMode``: ``--mode`` would be ignored."""
    with pytest.raises(SystemExit) as exc:
        main(["--nf", app, "--mode", "enetstl"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--mode: the {app} IR chain does not read" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("app", IR_APP_NAMES)
def test_four_cores_match_direct_dispatcher(app, capsys):
    argv = ["--nf", app, "--cores", "4", "--packets", "1500",
            "--flows", "256", "--seed", "3", "--json"]
    assert main(argv) == 0
    got = json.loads(capsys.readouterr().out)
    trace = FlowGenerator(n_flows=256, distribution="zipf", seed=4).trace(1500)
    run = RssDispatcher(
        app_nf_factory(app, registry_seed=3), n_cores=4, steering="rss"
    ).run(trace)
    assert got["accounted"] is True and got["mode"] is None
    assert got["total_cycles"] == run.total_cycles
    assert got["actions"] == json.loads(json.dumps(dict(run.actions)))
