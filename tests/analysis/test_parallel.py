"""Parallel/cached runner must be bit-identical to the serial harness."""

import pytest

from repro.analysis import experiments as exp
from repro.analysis.__main__ import main
from repro.analysis.parallel import (
    EXPERIMENTS,
    ResultCache,
    resolve_jobs,
    run_experiments,
    subtask_key,
)
from repro.analysis.registry import Experiment

N = 300  # small but non-degenerate workload for identity checks


class TestBitIdentical:
    def test_sweep_serial_vs_parallel(self):
        serial = exp.fig3e_countmin(n_packets=N)
        fanned = run_experiments(["fig3e"], n_packets=N, jobs=2)["fig3e"]
        assert fanned.name == serial.name
        assert fanned.x_label == serial.x_label
        assert fanned.points == serial.points

    def test_fig1_serial_vs_parallel(self):
        serial = exp.fig1_behavior_shares(n_packets=N)
        fanned = run_experiments(["fig1"], n_packets=N, jobs=2)["fig1"]
        assert fanned == serial

    def test_fig7_serial_vs_parallel(self):
        serial = exp.fig7_apps(n_packets=N)
        fanned = run_experiments(["fig7"], n_packets=N, jobs=2)["fig7"]
        assert fanned == serial
        assert list(fanned) == list(serial)  # merge preserves app order

    def test_jobs_one_matches_jobs_two(self):
        a = run_experiments(["fig3h"], n_packets=N, jobs=1)["fig3h"]
        b = run_experiments(["fig3h"], n_packets=N, jobs=2)["fig3h"]
        assert a.points == b.points

    def test_splitters_cover_every_experiment(self):
        # Any experiment name the CLI can select must split cleanly.
        for name, experiment in EXPERIMENTS.items():
            subtasks = experiment.split(100)
            assert subtasks, name
            for fn_name, kwargs in subtasks:
                assert isinstance(fn_name, str)
                assert isinstance(kwargs, dict)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            run_experiments(["fig99"], n_packets=N)

    def test_repeated_name_runs_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        out = run_experiments(["fig3e", "fig3e"], n_packets=200, cache=cache)
        assert list(out) == ["fig3e"]
        assert len(out["fig3e"].points) == 15  # 5 depths x 3 modes
        assert out["fig3e"].points == exp.fig3e_countmin(n_packets=200).points
        assert (cache.hits, cache.misses) == (0, 5)

    def test_multicore_steering_serial_vs_parallel(self):
        """The steering matrix fans one policy per worker; results and
        policy order must match the serial run exactly."""
        serial = exp.multicore_steering(n_packets=2000)
        fanned = run_experiments(["multicore"], n_packets=2000, jobs=2)[
            "multicore"
        ]
        assert fanned == serial
        assert list(fanned) == list(serial)
        assert set(serial) == set(exp.STEERING_POLICIES)

    def test_multicore_steering_improves_imbalance(self):
        results = exp.multicore_steering(n_packets=4000)
        assert results["ntuple"]["imbalance"] <= results["rss"]["imbalance"]
        cycles = {d["total_cycles"] for d in results.values()}
        assert len(cycles) == 1


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = subtask_key("fig3e_countmin", {"n_packets": 100})
        found, _ = cache.get(key)
        assert not found
        cache.put(key, {"hello": 1})
        found, value = cache.get(key)
        assert found and value == {"hello": 1}
        assert cache.hits == 1 and cache.misses == 1

    @pytest.mark.parametrize(
        "garbage",
        [
            b"not a pickle",
            b"garbage\n",  # 'g' is pickle GET: raises ValueError, not UnpicklingError
            b"",
            b"\x80\x05garbage",
        ],
    )
    def test_corrupt_entry_is_a_miss(self, tmp_path, garbage):
        cache = ResultCache(tmp_path)
        key = subtask_key("fig3e_countmin", {"n_packets": 100})
        cache.put(key, [1, 2, 3])
        cache._path(key).write_bytes(garbage)
        found, _ = cache.get(key)
        assert not found

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(subtask_key("a", {}), 1)
        cache.put(subtask_key("b", {}), 2)
        assert cache.clear() == 2
        assert cache.clear() == 0

    def test_keys_distinguish_fn_and_params(self):
        base = subtask_key("fig3e_countmin", {"n_packets": 100})
        assert subtask_key("fig3e_countmin", {"n_packets": 200}) != base
        assert subtask_key("fig3d_nitrosketch", {"n_packets": 100}) != base
        assert subtask_key("fig3e_countmin", {"n_packets": 100}) == base

    def test_warm_cache_skips_recompute_and_matches(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_experiments(["fig3h"], n_packets=N, cache=cache)["fig3h"]
        assert cache.misses > 0 and cache.hits == 0
        warm_cache = ResultCache(tmp_path)
        warm = run_experiments(["fig3h"], n_packets=N, cache=warm_cache)["fig3h"]
        assert warm_cache.misses == 0
        assert warm_cache.hits == len(EXPERIMENTS["fig3h"].split(N))
        assert warm.points == cold.points

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs("auto") >= 1
        assert resolve_jobs(None) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(0)


class TestCliIntegration:
    def test_jobs_flag(self, capsys):
        assert main(["--only", "fig3h", "--packets", "200", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Eiffel" in out
        assert "cache:" in out

    def test_no_cache_flag(self, capsys):
        assert main(["--only", "fig3h", "--packets", "200", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "cache:" not in out

    def test_cache_warms_across_invocations(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cli-cache")
        args = ["--only", "fig3h", "--packets", "200", "--cache-dir", cache_dir]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "0 hit(s)" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 miss(es)" in second
        # Identical rendered report either way.
        assert first.split("[1 experiment(s)")[0] == second.split("[1 experiment(s)")[0]

    def test_clear_cache(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cli-cache")
        assert main(["--only", "fig3h", "--packets", "200",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["--clear-cache", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "cleared" in out

    def test_bad_jobs_value(self):
        with pytest.raises(SystemExit):
            main(["--jobs", "0"])
        with pytest.raises(SystemExit):
            main(["--jobs", "fast"])

    def test_retries_flag_accepted(self, capsys):
        assert main(["--only", "fig3h", "--packets", "200", "--no-cache",
                     "--retries", "2"]) == 0
        assert "Eiffel" in capsys.readouterr().out


class TestFailureHandling:
    """A raising subtask must not poison siblings or the cache."""

    @pytest.fixture()
    def broken(self, monkeypatch):
        from repro.analysis import parallel

        def boom(n_packets=0):
            raise RuntimeError("boom")

        monkeypatch.setitem(parallel.TASK_FNS, "test_boom", boom)
        monkeypatch.setitem(
            parallel.EXPERIMENTS, "broken", Experiment("test_boom")
        )
        monkeypatch.setattr(parallel, "RETRY_BACKOFF_S", 0)

    def test_failure_raises_aggregate_error(self, broken):
        from repro.analysis.parallel import SubtaskError

        with pytest.raises(SubtaskError) as exc:
            run_experiments(["broken"], n_packets=N, retries=0)
        [(fn_name, kwargs, cause)] = exc.value.failures
        assert fn_name == "test_boom"
        assert kwargs == {"n_packets": N}
        assert isinstance(cause, RuntimeError)
        assert "boom" in str(exc.value)

    def test_failure_in_pool_raises_too(self, broken):
        from repro.analysis.parallel import SubtaskError

        with pytest.raises(SubtaskError):
            run_experiments(["fig3h", "broken"], n_packets=N, jobs=2,
                            retries=0)

    def test_sibling_successes_are_cached_failures_are_not(
        self, broken, tmp_path
    ):
        from repro.analysis.parallel import SubtaskError

        cache = ResultCache(tmp_path)
        with pytest.raises(SubtaskError):
            run_experiments(["fig3h", "broken"], n_packets=N, jobs=2,
                            cache=cache, retries=0)
        # The healthy experiment's points all landed in the cache ...
        warm = ResultCache(tmp_path)
        run_experiments(["fig3h"], n_packets=N, cache=warm)
        assert warm.misses == 0
        assert warm.hits == len(EXPERIMENTS["fig3h"].split(N))
        # ... and the failed subtask was never written.
        boom_key = subtask_key("test_boom", {"n_packets": N})
        probe = ResultCache(tmp_path)
        found, _ = probe.get(boom_key)
        assert not found

    def test_retry_recovers_transient_failure(self, monkeypatch, tmp_path):
        from repro.analysis import parallel

        marker = tmp_path / "attempts"

        def flaky(n_packets=0):
            attempts = int(marker.read_text()) if marker.exists() else 0
            marker.write_text(str(attempts + 1))
            if attempts == 0:
                raise OSError("transient")
            return {"ok": n_packets}

        monkeypatch.setitem(parallel.TASK_FNS, "test_flaky", flaky)
        monkeypatch.setitem(
            parallel.EXPERIMENTS, "flaky", Experiment("test_flaky")
        )
        monkeypatch.setattr(parallel, "RETRY_BACKOFF_S", 0)
        out = run_experiments(["flaky"], n_packets=N, retries=1)
        assert out["flaky"] == {"ok": N}
        assert int(marker.read_text()) == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_cache_write_keeps_the_result(self, jobs, tmp_path):
        class ReadOnlyCache(ResultCache):
            def put(self, key, value):
                raise PermissionError("read-only")

        with pytest.warns(RuntimeWarning, match="read-only"):
            out = run_experiments(["fig3h"], n_packets=N, jobs=jobs,
                                  cache=ReadOnlyCache(tmp_path), retries=0)
        assert out["fig3h"].points == exp.fig3h_eiffel(n_packets=N).points

    def test_exhausted_retries_surface_the_error(self, broken):
        from repro.analysis.parallel import SubtaskError

        with pytest.raises(SubtaskError, match="after retries"):
            run_experiments(["broken"], n_packets=N, retries=2)

    def test_retry_params_validated(self):
        with pytest.raises(ValueError):
            run_experiments(["fig3h"], n_packets=N, retries=-1)
