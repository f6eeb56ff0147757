"""Parallel experiment fan-out: determinism, cache integrity, fallback.

``ExperimentRunner.run_many`` distributes uncached (app, config) pairs
over a process pool. The contract pinned here: parallel results are
bit-identical to serial ones, concurrent writers of the same cache key
never corrupt the cache (atomic write-to-temp + rename), and pools that
cannot be created degrade to the serial path instead of failing.
"""

import json
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.obs.runlog import iter_records
from repro.resilience import GridManifest, unwrap_result
from repro.sim import experiments as experiments_mod
from repro.sim import presets
from repro.sim.experiments import (FANOUT_MIN_INSTRUCTIONS,
                                   ExperimentRunner, GridTaskError,
                                   _run_in_worker, batch_width)
from repro.sim.results import SimResult

APPS = ["bing", "pixlr"]
CONFIGS = ["baseline", "nl"]


def _always_dying_worker(app, config, scale, seed, cache_dir,
                         use_disk_cache, log_dir=None, attempt=1,
                         **kwargs):
    """Worker stand-in that dies before producing any result (module-level
    so it pickles into the pool under fork and spawn alike)."""
    os._exit(3)


def _slow_worker(app, config, scale, seed, cache_dir, use_disk_cache,
                 log_dir=None, attempt=1, **kwargs):
    """Worker stand-in that outlives any reasonable per-task timeout."""
    time.sleep(2.0)
    return _run_in_worker(app, config, scale, seed, cache_dir,
                          use_disk_cache, log_dir, attempt, **kwargs)


def _flaky_worker(app, config, scale, seed, cache_dir, use_disk_cache,
                  log_dir=None, attempt=1, **kwargs):
    """Worker stand-in that hangs for bing and behaves for everyone else."""
    if app == "bing":
        time.sleep(2.0)
    return _run_in_worker(app, config, scale, seed, cache_dir,
                          use_disk_cache, log_dir, attempt, **kwargs)


class _InlinePool:
    """An executor that runs its initializer and every task in the calling
    process, so a test can count what a worker does."""

    def __init__(self, max_workers, mp_context=None, initializer=None,
                 initargs=()):
        initializer(*initargs)

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def _child_pids() -> set[str]:
    """Live child processes of this process, every thread's included."""
    return {pid for path in Path("/proc/self/task").glob("*/children")
            for pid in path.read_text().split()}


def _grid_dicts(runner):
    grid = runner.grid([presets.by_name(name) for name in CONFIGS],
                       apps=APPS)
    return {cfg: {app: result.to_dict()
                  for app, result in row.items()}
            for cfg, row in grid.items()}


class TestParallelDeterminism:
    def test_parallel_grid_matches_serial(self, tmp_path):
        serial = ExperimentRunner(cache_dir=tmp_path / "serial",
                                  scale=0.25, seed=0, jobs=1)
        parallel = ExperimentRunner(cache_dir=tmp_path / "parallel",
                                    scale=0.25, seed=0, jobs=2)
        assert _grid_dicts(serial) == _grid_dicts(parallel)

    def test_parallel_writes_identical_cache_files(self, tmp_path):
        serial = ExperimentRunner(cache_dir=tmp_path / "serial",
                                  scale=0.25, seed=0, jobs=1)
        parallel = ExperimentRunner(cache_dir=tmp_path / "parallel",
                                    scale=0.25, seed=0, jobs=2)
        _grid_dicts(serial)
        _grid_dicts(parallel)
        serial_files = {p.name: p for p in (tmp_path / "serial").glob("*.json")}
        parallel_files = {p.name: p
                          for p in (tmp_path / "parallel").glob("*.json")}
        assert serial_files.keys() == parallel_files.keys()
        assert serial_files
        for name, path in serial_files.items():
            assert (json.loads(path.read_text())
                    == json.loads(parallel_files[name].read_text()))
        # no leftover temp files from the atomic-rename protocol
        assert not list((tmp_path / "parallel").glob("*.tmp"))

    def test_run_many_preserves_pair_order_and_dedupes(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0,
                                  jobs=2)
        baseline = presets.baseline()
        pairs = [("bing", baseline), ("pixlr", baseline),
                 ("bing", baseline)]  # duplicate pair
        results = runner.run_many(pairs)
        assert len(results) == 3
        assert results[0].to_dict() == results[2].to_dict()
        assert results[0].app == "bing"
        assert results[1].app == "pixlr"

    def test_traces_recorded_before_fanout(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0,
                                  jobs=2)
        runner.run_many([("bing", presets.baseline())])
        assert list((tmp_path / "traces").glob("bing-*.espt"))


class TestCacheIntegrity:
    def test_concurrent_writers_same_key(self, tmp_path):
        """Several workers simulating the same key land a complete,
        parseable cache file identical to the serial result."""
        config = presets.baseline()
        try:
            pool = ProcessPoolExecutor(max_workers=2)
        except (OSError, PermissionError) as exc:  # pragma: no cover
            pytest.skip(f"cannot spawn worker processes: {exc}")
        with pool:
            futures = [
                pool.submit(_run_in_worker, "bing", config, 0.25, 0,
                            str(tmp_path), True)
                for _ in range(4)]
            pooled = [SimResult.from_dict(f.result()) for f in futures]
        reference = ExperimentRunner(
            cache_dir=tmp_path / "ref", scale=0.25, seed=0,
            jobs=1).run("bing", config).to_dict()
        for result in pooled:
            assert result.to_dict() == reference
        cache_files = [p for p in tmp_path.glob("*.json")]
        assert len(cache_files) == 1
        payload, verified = unwrap_result(cache_files[0].read_text())
        assert verified  # freshly written entries carry a valid digest
        assert SimResult.from_dict(payload).to_dict() == reference
        assert not list(tmp_path.glob("*.tmp"))


class TestFallback:
    def test_pool_creation_failure_degrades_to_serial(self, tmp_path,
                                                      monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no process support")

        monkeypatch.setattr("repro.sim.experiments.ProcessPoolExecutor",
                            broken_pool)
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0,
                                  jobs=4)
        results = runner.run_many([("bing", presets.baseline())])
        reference = ExperimentRunner(
            cache_dir=tmp_path / "ref", scale=0.25, seed=0,
            jobs=1).run("bing", presets.baseline())
        assert results[0].to_dict() == reference.to_dict()

    def test_cached_batch_never_touches_the_pool(self, tmp_path,
                                                 monkeypatch):
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0,
                                  jobs=2)
        pairs = [("bing", presets.baseline())]
        runner.run_many(pairs)

        def exploding_pool(*args, **kwargs):
            raise AssertionError("pool created for a fully-cached batch")

        monkeypatch.setattr("repro.sim.experiments.ProcessPoolExecutor",
                            exploding_pool)
        results = runner.run_many(pairs)
        assert results[0].app == "bing"


class TestFaultTolerance:
    def test_dead_workers_complete_serially(self, tmp_path, monkeypatch):
        """Every worker dying (BrokenProcessPool) still yields a complete,
        order-preserving result list, computed serially in the parent."""
        monkeypatch.setattr("repro.sim.experiments._run_in_worker",
                            _always_dying_worker)
        # the dying worker is a process-pool stand-in: pin jobs=2 so an
        # ambient REPRO_JOBS can't reroute the batch around it
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0,
                                  jobs=2)
        baseline = presets.baseline()
        pairs = [("bing", baseline), ("pixlr", baseline),
                 ("bing", presets.nl())]
        results = runner.run_many(pairs)
        assert [r.app for r in results] == ["bing", "pixlr", "bing"]
        assert runner.retries >= 1
        reference = ExperimentRunner(cache_dir=tmp_path / "ref",
                                     scale=0.25, seed=0,
                                     jobs=1).run_many(pairs)
        assert ([r.to_dict() for r in results]
                == [r.to_dict() for r in reference])

    def test_task_timeout_marks_failed_instead_of_hanging(self, tmp_path,
                                                          monkeypatch):
        """A task that can never beat the timeout — parallel or serial —
        exhausts its attempts and is marked failed with a reason; the
        grid terminates instead of hanging on the serial retry."""
        monkeypatch.setattr("repro.sim.experiments._run_in_worker",
                            _slow_worker)
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0,
                                  jobs=2, task_timeout=0.2,
                                  max_attempts=2, retry_backoff=0.01)
        with pytest.raises(GridTaskError) as info:
            runner.run_many([("bing", presets.baseline())])
        assert "timeout" in str(info.value)
        assert runner.retries >= 1
        (failed_key, failed_app, reason) = info.value.failures[0]
        assert failed_app == "bing"
        assert "attempts" in reason
        manifest = GridManifest.latest_incomplete(tmp_path / "manifests")
        assert manifest is not None
        task = manifest.tasks[failed_key]
        assert task["status"] == "failed"
        assert task["error"] == reason
        assert "timeout" in reason and "after 2 attempts" in reason

    def test_timed_serial_batch_shares_one_pool(self, tmp_path,
                                                monkeypatch):
        """With a timeout at jobs=1, the first tries of every uncached
        task go through one width-1 pool, not one pool per task."""
        widths = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                widths.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(ExperimentRunner, "_pool_cls",
                            lambda self: CountingPool)
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                  jobs=1, task_timeout=60)
        pairs = [(app, presets.by_name(name))
                 for name in CONFIGS for app in APPS]
        results = runner.run_many(pairs)
        assert widths == [1]
        reference = ExperimentRunner(cache_dir=tmp_path / "ref",
                                     scale=0.1, seed=0,
                                     jobs=1).run_many(pairs)
        assert ([r.to_dict() for r in results]
                == [r.to_dict() for r in reference])

    def test_serial_timeout_failure_does_not_block_other_tasks(
            self, tmp_path, monkeypatch):
        """Other tasks of the grid still complete (and stay cached) when
        one task burns its whole attempt budget."""
        monkeypatch.setattr("repro.sim.experiments._run_in_worker",
                            _flaky_worker)
        # jobs=1 pins the serial retry ladder (the subject of this test)
        # even under an ambient REPRO_JOBS
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0,
                                  jobs=1, task_timeout=0.3, max_attempts=1)
        baseline = presets.baseline()
        with pytest.raises(GridTaskError):
            runner.run_many([("bing", baseline), ("pixlr", baseline)])
        fresh = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0,
                                 jobs=1)
        assert fresh.run("pixlr", baseline).app == "pixlr"

    def test_timeout_env_configures_runner(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "1.5")
        assert ExperimentRunner(use_disk_cache=False).task_timeout == 1.5


class TestJobsConfiguration:
    def test_env_sets_default_jobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert ExperimentRunner(use_disk_cache=False).jobs == 3

    def test_invalid_env_means_serial(self, monkeypatch):
        import repro.sim.experiments as experiments_mod

        monkeypatch.setattr(experiments_mod, "_warned_envs", set())
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.warns(RuntimeWarning, match="REPRO_JOBS"):
            assert ExperimentRunner(use_disk_cache=False).jobs == 1

    def test_constructor_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert ExperimentRunner(use_disk_cache=False, jobs=2).jobs == 2

    def test_jobs_floor_is_one(self):
        assert ExperimentRunner(use_disk_cache=False, jobs=0).jobs == 1

    @pytest.mark.parametrize(
        "jobs, env, cpus, disk, instructions, width", [
            (3, "2", 1, False, 0, 3),     # an explicit jobs= always wins
            (None, "2", 1, False, 0, 2),  # then REPRO_JOBS
            (None, None, 1, True, 10**9, 1),  # one usable CPU
            (None, None, 4, False, 10**9, 1),  # no disk cache
            (None, None, 4, True, FANOUT_MIN_INSTRUCTIONS - 1, 1),
            (None, None, 4, True, FANOUT_MIN_INSTRUCTIONS, 4),
        ])
    def test_batch_width_rule(self, tmp_path, monkeypatch, jobs, env, cpus,
                              disk, instructions, width):
        if env is None:
            monkeypatch.delenv("REPRO_JOBS", raising=False)
        else:
            monkeypatch.setenv("REPRO_JOBS", env)
        runner = ExperimentRunner(cache_dir=tmp_path, use_disk_cache=disk,
                                  jobs=jobs)
        assert batch_width(runner._jobs, cpus, disk, instructions) == width


class TestResidentWorkers:
    def test_worker_loads_each_trace_once(self, tmp_path, monkeypatch):
        """Two tasks of one app in one width-1 pool share the worker's
        runner, so the trace is loaded once, not once per task."""
        loads = []
        real_load = experiments_mod.load_trace

        def counting_load(*args, **kwargs):
            loads.append(args[0])
            return real_load(*args, **kwargs)

        monkeypatch.setattr(experiments_mod, "load_trace", counting_load)
        monkeypatch.setattr(experiments_mod, "_resident", None)
        monkeypatch.setattr(ExperimentRunner, "_pool_cls",
                            lambda self: _InlinePool)
        # jobs=1 records no trace in the parent; the timeout sends the
        # first tries through one width-1 pool
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                  jobs=1, task_timeout=60)
        results = runner.run_many([("pixlr", presets.baseline()),
                                   ("pixlr", presets.nl())])
        assert [r.app for r in results] == ["pixlr", "pixlr"]
        assert len(loads) == 1


class TestDefaultWidth:
    """With no jobs=, REPRO_JOBS or --jobs, a batch above the fan-out
    threshold runs over every usable CPU."""

    @pytest.fixture
    def fanning_out(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr(experiments_mod, "usable_cpus", lambda: 2)

    def test_default_width_grid_matches_serial(self, tmp_path,
                                               fanning_out):
        runner = ExperimentRunner(cache_dir=tmp_path / "auto", scale=0.25,
                                  seed=0, log_dir=tmp_path / "logs")
        auto = _grid_dicts(runner)
        serial = ExperimentRunner(cache_dir=tmp_path / "serial",
                                  scale=0.25, seed=0, jobs=1)
        assert auto == _grid_dicts(serial)
        backends = {r["backend"] for r in iter_records(tmp_path / "logs")
                    if r.get("cache") == "simulated"}
        assert backends == {"process"}

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                        reason="needs Linux /proc")
    def test_default_width_batch_leaves_no_child_process(self, tmp_path,
                                                         fanning_out):
        before = _child_pids()
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0)
        _grid_dicts(runner)
        assert runner._memory  # the batch ran
        assert _child_pids() - before == set()
