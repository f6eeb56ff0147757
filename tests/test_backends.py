"""Grid fan-out: parity, deadline accounting, the worker-count rule.

The worker count (``jobs`` / ``REPRO_JOBS`` / ``--jobs``) is the one
fan-out setting: at 1 every uncached task runs in-process, above 1
``run_many`` hands the batch to :func:`repro.exec.run_pool`. The
contract pinned here:

* ``jobs=1`` and ``jobs=2`` produce bit-identical :class:`SimResult`
  objects and write identically-keyed cache files;
* per-task deadlines are measured from task *start*: a task queued
  behind busy workers of a deliberately oversubscribed pool is never
  charged its queue wait, and a straggler's abandonment never converts
  queued siblings into spurious timeouts (they are ``requeued``);
* one pool break is accounted as ONE worker death, with the flooded
  sibling tasks counted as ``requeued``;
* a pool is opened exactly when ``jobs`` is above 1, ``min(jobs,
  uncached tasks)`` wide, whatever else the environment says;
* retry backoff is full-jitter and deterministic in the task token.
"""

import os
import time

import pytest

import repro.sim.experiments as experiments_mod
from repro.exec import jittered_backoff
from repro.obs import metrics as metrics_mod
from repro.obs.runlog import iter_records
from repro.obs.stats import format_table, summarize
from repro.sim import presets
from repro.sim.experiments import ExperimentRunner, GridTaskError
from repro.sim.experiments import _run_in_worker as _real_run_in_worker
from repro.sim.simulator import Simulator

APPS = ("bing", "pixlr")
CONFIGS = ("baseline", "nl")

#: seconds each napping task holds its worker (see the queue-wait tests)
NAP_S = 1.0


def _napping_worker(app, config, scale, seed, cache_dir, use_disk_cache,
                    log_dir=None, attempt=1, **kwargs):
    """Worker stand-in that holds its worker for :data:`NAP_S` before
    simulating, so tasks queued behind it accumulate real queue wait
    (module-level so it pickles under fork and spawn alike)."""
    time.sleep(NAP_S)
    return _real_run_in_worker(app, config, scale, seed, cache_dir,
                               use_disk_cache, log_dir, attempt, **kwargs)


def _wedged_worker(app, config, scale, seed, cache_dir, use_disk_cache,
                   log_dir=None, attempt=1, **kwargs):
    """Worker stand-in that wedges forever on bing (well past any test
    deadline) and behaves for every other app."""
    if app == "bing":
        time.sleep(8.0)
    return _real_run_in_worker(app, config, scale, seed, cache_dir,
                               use_disk_cache, log_dir, attempt, **kwargs)


def _dying_worker(app, config, scale, seed, cache_dir, use_disk_cache,
                  log_dir=None, attempt=1, **kwargs):
    """Worker stand-in that kills its process before producing anything."""
    os._exit(3)


def _pairs():
    return [(app, presets.by_name(name)) for name in CONFIGS
            for app in APPS]


@pytest.fixture
def recording_metrics():
    registry = metrics_mod.MetricsRegistry()
    previous = metrics_mod.set_registry(registry)
    yield registry
    metrics_mod.set_registry(previous)


class TestBackendParity:
    def test_all_backends_bit_identical_with_identical_cache_keys(
            self, tmp_path):
        """The acceptance matrix: the same grid in-process (``jobs=1``)
        and over a pool (``jobs=2``) yields bit-identical results AND
        identically-named (= identically-keyed) cache files."""
        reference = None
        ref_files = None
        for jobs in (1, 2):
            runner = ExperimentRunner(cache_dir=tmp_path / f"jobs{jobs}",
                                      scale=0.1, seed=0, jobs=jobs)
            got = [r.to_dict() for r in runner.run_many(_pairs())]
            files = sorted(
                p.name for p in (tmp_path / f"jobs{jobs}").glob("*.json"))
            if reference is None:
                reference, ref_files = got, files
            else:
                assert got == reference, f"jobs={jobs} diverged"
                assert files == ref_files, f"jobs={jobs} keyed differently"
        assert ref_files  # the grid really cached something

    @pytest.mark.parametrize("kernel", ["object", "packed"])
    def test_parity_holds_across_kernels(self, tmp_path, kernel):
        """Spot check: the results at every worker count are the ones
        either hot loop computes directly over the runner's own trace."""
        pairs = [("bing", presets.baseline()),
                 ("bing", presets.by_name("nl"))]
        direct = ExperimentRunner(cache_dir=tmp_path / "direct", scale=0.1,
                                  seed=0, jobs=1)
        expected = []
        for app, config in pairs:
            result = Simulator(direct.trace(app), config,
                               kernel=kernel).run()
            result.config = config.name
            expected.append(result.to_dict())
        for jobs in (1, 2):
            runner = ExperimentRunner(
                cache_dir=tmp_path / f"{kernel}-jobs{jobs}", scale=0.1,
                seed=0, jobs=jobs)
            got = [r.to_dict() for r in runner.run_many(pairs)]
            assert got == expected, f"jobs={jobs} diverged from {kernel}"

class TestDeadlineFromTaskStart:
    def test_queued_tasks_survive_an_oversubscribed_pool(
            self, tmp_path, monkeypatch, recording_metrics):
        """Five ~1s tasks through a deliberately oversubscribed
        two-worker pool, with a deadline each task's *runtime* beats
        comfortably but the last task's submit-to-finish wall time
        (3 naps + 3 simulations) blows well past. Measured from task
        start, nothing times out; measured from submission — the old
        accounting — the tail of the queue would be abandoned."""
        monkeypatch.setattr("repro.sim.experiments._run_in_worker",
                            _napping_worker)
        pairs = _pairs() + [("bing", presets.nl_s())]
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.05, seed=0,
                                  jobs=2, task_timeout=2.5, max_attempts=1)
        results = runner.run_many(pairs)
        assert [r.app for r in results] == [app for app, _ in pairs]
        assert runner.retries == 0  # nothing timed out, nothing requeued
        counters = recording_metrics.snapshot()["counters"]
        assert counters.get("runner.task_timeouts", 0) == 0
        # the queue wait was observed, not charged: the task a worker
        # ran third sat queued for two full naps
        hist = recording_metrics.snapshot()["histograms"]
        wait = hist["backend.queue_wait_s"]
        assert wait["count"] == len(pairs)
        assert wait["max"] > 2 * NAP_S

    def test_straggler_does_not_time_out_queued_siblings(
            self, tmp_path, monkeypatch, recording_metrics):
        """Two wedged tasks pin both workers; the sibling queued behind
        them can never start. The stragglers are the ONLY timeouts — the
        sibling is handed back as ``requeued`` (the stall guard) and
        completes serially instead of being blamed for the wait."""
        monkeypatch.setattr("repro.sim.experiments._run_in_worker",
                            _wedged_worker)
        log_dir = tmp_path / "logs"
        baseline = presets.baseline()
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.05, seed=0,
                                  jobs=2, task_timeout=1.0, max_attempts=1,
                                  log_dir=log_dir)
        with pytest.raises(GridTaskError) as info:
            runner.run_many([("bing", baseline), ("bing", presets.nl()),
                             ("pixlr", baseline)])
        # bing (and only bing) failed, on its timeouts
        assert [app for _, app, _ in info.value.failures] \
            == ["bing", "bing"]
        reasons_by_app: dict = {}
        for record in iter_records(log_dir):
            if record.get("kind") == "retry":
                reasons_by_app.setdefault(record["app"],
                                          []).append(record["reason"])
        assert set(reasons_by_app.get("bing", [])) == {"timeout"}
        # pixlr was never charged a timeout it didn't earn
        assert set(reasons_by_app.get("pixlr", [])) == {"requeued"}
        counters = recording_metrics.snapshot()["counters"]
        assert counters.get("runner.tasks_requeued", 0) == 1
        # and it completed serially: its result is on disk for next time
        fresh = ExperimentRunner(cache_dir=tmp_path, scale=0.05, seed=0,
                                 jobs=1, log_dir=log_dir)
        assert fresh.run("pixlr", baseline).app == "pixlr"
        hits = [r for r in iter_records(log_dir)
                if r.get("kind") == "run" and r.get("app") == "pixlr"
                and r.get("cache") in ("memory", "disk")]
        assert hits  # the serial completion cached it


class TestPoolBreakAccounting:
    def test_one_pool_break_is_one_worker_death(self, tmp_path,
                                                monkeypatch,
                                                recording_metrics):
        """Every worker dying floods every in-flight future with
        ``BrokenProcessPool``; exactly ONE death is counted and the
        surviving tasks are ``requeued``, then completed serially."""
        monkeypatch.setattr("repro.sim.experiments._run_in_worker",
                            _dying_worker)
        baseline = presets.baseline()
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                  jobs=2)
        pairs = [("bing", baseline), ("pixlr", baseline),
                 ("bing", presets.nl())]
        results = runner.run_many(pairs)
        assert [r.app for r in results] == ["bing", "pixlr", "bing"]
        counters = recording_metrics.snapshot()["counters"]
        assert counters.get("runner.worker_deaths", 0) == 1
        assert counters.get("runner.tasks_requeued", 0) == len(pairs) - 1
        assert runner.retries == len(pairs)


class TestBackendConfiguration:
    @staticmethod
    def _count_pools(monkeypatch) -> list:
        """Record the width of every pool the harness opens."""
        widths: list = []
        real = experiments_mod.ProcessPoolExecutor

        def counting_pool(*args, **kwargs):
            widths.append(kwargs.get("max_workers"))
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments_mod, "ProcessPoolExecutor",
                            counting_pool)
        return widths

    def test_backend_derives_from_worker_count(self, tmp_path,
                                               monkeypatch):
        """``jobs=1`` never opens a pool; ``jobs`` above 1 opens one,
        no wider than the batch's uncached tasks."""
        widths = self._count_pools(monkeypatch)
        ExperimentRunner(cache_dir=tmp_path / "serial", scale=0.1, seed=0,
                         jobs=1).run_many(_pairs())
        assert widths == []
        ExperimentRunner(cache_dir=tmp_path / "pool", scale=0.1, seed=0,
                         jobs=4).run_many(_pairs()[:2])
        assert widths == [2]

    def test_stale_backend_env_cannot_veto_the_pool(self, tmp_path,
                                                    monkeypatch):
        """``REPRO_BACKEND`` is no longer read: left in the environment
        from an older setup, it does not turn a ``jobs=2`` batch
        serial."""
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        widths = self._count_pools(monkeypatch)
        log_dir = tmp_path / "logs"
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                  jobs=2, log_dir=log_dir)
        runner.run_many(_pairs()[:2])
        assert widths == [2]
        simulated = [r for r in iter_records(log_dir)
                     if r.get("kind") == "run"
                     and r.get("cache") == "simulated"]
        assert len(simulated) == 2
        assert all(r["backend"] == "process" for r in simulated)


class TestBackendObservability:
    def test_run_records_are_stamped_and_stats_show_the_column(
            self, tmp_path):
        """Simulated runs carry the backend that served them; the stats
        reducer tallies them into the per-app ``backend`` column and the
        ``backends —`` summary line."""
        log_dir = tmp_path / "logs"
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                  jobs=2, log_dir=log_dir)
        runner.run_many([("bing", presets.baseline()),
                         ("pixlr", presets.baseline())])
        simulated = [r for r in iter_records(log_dir)
                     if r.get("kind") == "run"
                     and r.get("cache") == "simulated"]
        assert simulated
        assert all(r["backend"] == "process" for r in simulated)
        summary = summarize(iter_records(log_dir))
        assert summary["backends"] == {"process": len(simulated)}
        table = format_table(summary)
        assert "backend" in table
        assert "backends — process:" in table

    def test_serial_runs_are_stamped_serial(self, tmp_path):
        log_dir = tmp_path / "logs"
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                  jobs=1, log_dir=log_dir)
        runner.run("bing", presets.baseline())
        [record] = [r for r in iter_records(log_dir)
                    if r.get("kind") == "run"]
        assert record["backend"] == "serial"

    def test_worker_error_is_handed_back_not_raised(self, tmp_path,
                                                    monkeypatch,
                                                    recording_metrics):
        """A genuine exception inside a pool task lands in the serial
        ladder's bookkeeping (``error`` retries, ``GridTaskError`` after
        the budget) at every worker count, instead of crashing
        ``run_many``."""
        def poisoned(self, app, cfg, **kwargs):
            raise RuntimeError("injected simulation bug")

        monkeypatch.setattr(ExperimentRunner, "_simulate", poisoned)
        for jobs in (1, 2):
            runner = ExperimentRunner(cache_dir=tmp_path / f"jobs{jobs}",
                                      scale=0.1, seed=0, jobs=jobs,
                                      max_attempts=1, retry_backoff=0.0)
            with pytest.raises(GridTaskError) as info:
                runner.run_many([("bing", presets.baseline())])
            assert "injected simulation bug" in str(info.value)
        assert recording_metrics.snapshot()["counters"].get(
            "runner.task_errors", 0) >= 2


class TestJitteredBackoff:
    def test_deterministic_and_bounded(self):
        for attempt in range(2, 8):
            ceiling = min(0.25 * 2 ** (attempt - 2), 30.0)
            delay = jittered_backoff(0.25, attempt, "task-token")
            assert delay == jittered_backoff(0.25, attempt, "task-token")
            assert 0.0 <= delay < ceiling
        # different tokens draw differently (full jitter, not a ladder)
        draws = {jittered_backoff(0.25, 4, f"t{i}") for i in range(16)}
        assert len(draws) > 8

    def test_zero_base_disables(self):
        assert jittered_backoff(0.0, 5, "t") == 0.0

    def test_cap_bounds_the_ceiling(self):
        assert jittered_backoff(10.0, 30, "t", cap=2.0) < 2.0
