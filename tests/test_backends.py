"""Execution backends: parity, deadline accounting, auto-pick, plumbing.

The pluggable backend layer (:mod:`repro.exec`) owns how ``run_many``
batches fan out. The contract pinned here:

* every backend — serial, process, and whatever ``auto``
  resolves to — produces bit-identical :class:`SimResult` objects and
  writes identically-keyed cache files;
* per-task deadlines are measured from task *start*: a task queued
  behind busy workers of a deliberately oversubscribed pool is never
  charged its queue wait, and a straggler's abandonment never converts
  queued siblings into spurious timeouts (they are ``requeued``);
* one pool break is accounted as ONE worker death, with the flooded
  sibling tasks counted as ``requeued``;
* ``auto`` never picks ``process`` on a single-CPU machine (and runs no
  probe there at all), degrades to ``serial`` where worker processes are
  unavailable or too slow to start, and records its choice;
* ``REPRO_BACKEND`` / the ``backend`` constructor argument / backend
  derivation from the worker count behave like every other harness knob
  (constructor > env > derived, malformed env warns once and falls
  back);
* retry backoff is full-jitter and deterministic in the task token; the
  auto-pick probe ceiling honours ``REPRO_PROBE_TIMEOUT``.
"""

import os
import time
import warnings

import pytest

import repro.exec.auto as auto_mod
import repro.sim.experiments as experiments_mod
from repro.exec import (BACKEND_NAMES, ProcessBackend, SerialBackend,
                        auto_pick, jittered_backoff, make_backend)
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


@pytest.fixture
def fresh_auto_cache():
    """Isolate each test's auto-pick from the per-process memoization."""
    auto_mod._choice_cache.clear()
    yield
    auto_mod._choice_cache.clear()


class TestBackendParity:
    def test_all_backends_bit_identical_with_identical_cache_keys(
            self, tmp_path):
        """The acceptance matrix: the same grid through the serial and
        process backends yields bit-identical results AND
        identically-named (= identically-keyed) cache files."""
        reference = None
        ref_files = None
        for backend in ("serial", "process"):
            runner = ExperimentRunner(cache_dir=tmp_path / backend,
                                      scale=0.1, seed=0, jobs=2,
                                      backend=backend)
            got = [r.to_dict() for r in runner.run_many(_pairs())]
            files = sorted(p.name
                           for p in (tmp_path / backend).glob("*.json"))
            if reference is None:
                reference, ref_files = got, files
            else:
                assert got == reference, f"{backend} diverged"
                assert files == ref_files, f"{backend} keyed differently"
        assert ref_files  # the grid really cached something

    @pytest.mark.parametrize("kernel", ["object", "packed"])
    def test_parity_holds_across_kernels(self, tmp_path, kernel):
        """Spot check: every backend's results are the ones either hot
        loop computes directly over the runner's own trace."""
        pairs = [("bing", presets.baseline()),
                 ("bing", presets.by_name("nl"))]
        direct = ExperimentRunner(cache_dir=tmp_path / "direct", scale=0.1,
                                  seed=0, backend="serial")
        expected = []
        for app, config in pairs:
            result = Simulator(direct.trace(app), config,
                               kernel=kernel).run()
            result.config = config.name
            expected.append(result.to_dict())
        for backend in ("serial", "process"):
            runner = ExperimentRunner(
                cache_dir=tmp_path / f"{kernel}-{backend}", scale=0.1,
                seed=0, jobs=2, backend=backend)
            got = [r.to_dict() for r in runner.run_many(pairs)]
            assert got == expected, f"{backend} diverged from {kernel}"

    def test_auto_backend_matches_serial(self, tmp_path, fresh_auto_cache):
        """Whatever ``auto`` resolves to on this machine, the results are
        the serial results, and the resolution is recorded."""
        pairs = [("bing", presets.baseline())]
        serial = ExperimentRunner(cache_dir=tmp_path / "serial", scale=0.1,
                                  seed=0, backend="serial")
        auto = ExperimentRunner(cache_dir=tmp_path / "auto", scale=0.1,
                                seed=0, backend="auto")
        assert [r.to_dict() for r in auto.run_many(pairs)] \
            == [r.to_dict() for r in serial.run_many(pairs)]
        assert auto.backend_name in ("serial", "process")
        assert auto.backend_choice is not None
        assert auto.backend_choice.backend == auto.backend_name


class TestDeadlineFromTaskStart:
    def test_queued_tasks_survive_an_oversubscribed_pool(
            self, tmp_path, monkeypatch, recording_metrics):
        """Three ~1s tasks through a deliberately oversubscribed
        single-worker pool, with a deadline each task's *runtime* beats
        comfortably but the third task's submit-to-finish wall time
        (3 naps + 3 simulations) blows well past. Measured from task
        start, nothing times out; measured from submission — the old
        accounting — the tail of the queue would be abandoned."""
        monkeypatch.setattr("repro.sim.experiments._run_in_worker",
                            _napping_worker)
        baseline = presets.baseline()
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.05, seed=0,
                                  jobs=1, backend="process",
                                  task_timeout=2.5, max_attempts=1)
        pairs = [("bing", baseline), ("pixlr", baseline),
                 ("bing", presets.nl())]
        results = runner.run_many(pairs)
        assert [r.app for r in results] == ["bing", "pixlr", "bing"]
        assert runner.retries == 0  # nothing timed out, nothing requeued
        counters = recording_metrics.snapshot()["counters"]
        assert counters.get("runner.task_timeouts", 0) == 0
        # the queue wait was observed, not charged: the tail task sat
        # queued for two full naps — far beyond any per-task runtime
        hist = recording_metrics.snapshot()["histograms"]
        wait = hist["backend.queue_wait_s"]
        assert wait["count"] == len(pairs)
        assert wait["max"] > 2 * NAP_S

    def test_straggler_does_not_time_out_queued_siblings(
            self, tmp_path, monkeypatch, recording_metrics):
        """A wedged task pins the only worker; the sibling queued behind
        it can never start. The straggler is the ONLY timeout — the
        sibling is handed back as ``requeued`` (the stall guard) and
        completes serially instead of being blamed for the wait."""
        monkeypatch.setattr("repro.sim.experiments._run_in_worker",
                            _wedged_worker)
        log_dir = tmp_path / "logs"
        baseline = presets.baseline()
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.05, seed=0,
                                  jobs=1, backend="process",
                                  task_timeout=1.0, max_attempts=1,
                                  log_dir=log_dir)
        with pytest.raises(GridTaskError) as info:
            runner.run_many([("bing", baseline), ("pixlr", baseline)])
        # bing (and only bing) failed, on its timeout
        assert [app for _, app, _ in info.value.failures] == ["bing"]
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
                                 jobs=1, backend="serial",
                                 log_dir=log_dir)
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
                                  jobs=2, backend="process")
        pairs = [("bing", baseline), ("pixlr", baseline),
                 ("bing", presets.nl())]
        results = runner.run_many(pairs)
        assert [r.app for r in results] == ["bing", "pixlr", "bing"]
        counters = recording_metrics.snapshot()["counters"]
        assert counters.get("runner.worker_deaths", 0) == 1
        assert counters.get("runner.tasks_requeued", 0) == len(pairs) - 1
        assert runner.retries == len(pairs)


class TestAutoPick:
    def test_single_cpu_is_serial_and_never_probes(self, monkeypatch,
                                                   fresh_auto_cache):
        monkeypatch.setattr(
            auto_mod, "_process_roundtrip",
            lambda *a, **k: pytest.fail("probe ran on a single-CPU pick"))
        choice = auto_pick(cpus=1)
        assert choice.backend == "serial"
        assert choice.process_roundtrip_s is None

    def test_multi_cpu_with_fast_workers_is_process(self, monkeypatch,
                                                    fresh_auto_cache):
        monkeypatch.setattr(auto_mod, "_process_roundtrip",
                            lambda *a, **k: 0.01)
        choice = auto_pick(cpus=8)
        assert choice.backend == "process"
        assert choice.cpus == 8
        assert choice.process_roundtrip_s == 0.01

    def test_unspawnable_workers_degrade_to_serial(self, monkeypatch,
                                                   fresh_auto_cache):
        monkeypatch.setattr(auto_mod, "_process_roundtrip",
                            lambda *a, **k: None)
        assert auto_pick(cpus=4).backend == "serial"

    def test_slow_worker_roundtrip_degrades_to_serial(self, monkeypatch,
                                                      fresh_auto_cache):
        monkeypatch.setattr(
            auto_mod, "_process_roundtrip",
            lambda *a, **k: auto_mod.ROUNDTRIP_CEILING_S * 5)
        choice = auto_pick(cpus=4)
        assert choice.backend == "serial"
        assert "round-trip" in choice.reason

    def test_choice_is_memoized_per_cpu_count(self, monkeypatch,
                                              fresh_auto_cache):
        monkeypatch.setattr(auto_mod, "_process_roundtrip",
                            lambda *a, **k: 0.01)
        first = auto_pick(cpus=4)
        monkeypatch.setattr(
            auto_mod, "_process_roundtrip",
            lambda *a, **k: pytest.fail("probed twice for one machine"))
        assert auto_pick(cpus=4) is first
        # a different machine shape probes afresh
        monkeypatch.setattr(auto_mod, "_process_roundtrip",
                            lambda *a, **k: 0.01)
        assert auto_pick(cpus=2) is not first

    def test_runner_never_picks_process_on_single_cpu(self, tmp_path,
                                                      monkeypatch,
                                                      fresh_auto_cache):
        """End to end through the runner: on a single-CPU machine,
        ``backend=auto`` resolves to serial — never a process pool."""
        monkeypatch.setattr(experiments_mod, "available_cpus", lambda: 1)
        log_dir = tmp_path / "logs"
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                  backend="auto", log_dir=log_dir)
        runner.run_many([("bing", presets.baseline())])
        assert runner.backend_name == "serial"
        assert runner.backend_choice.backend == "serial"
        choices = [r for r in iter_records(log_dir)
                   if r.get("kind") == "backend-choice"]
        assert len(choices) == 1
        assert choices[0]["backend"] == "serial"
        assert choices[0]["cpus"] == 1

    def test_to_record_is_json_shaped(self, fresh_auto_cache):
        record = auto_pick(cpus=1).to_record()
        assert set(record) == {"backend", "cpus", "process_roundtrip_s",
                               "reason"}


class TestBackendConfiguration:
    def test_env_sets_requested_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        runner = ExperimentRunner(use_disk_cache=False)
        assert runner.backend_requested == "process"

    def test_env_is_normalised(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "  Process ")
        assert ExperimentRunner(
            use_disk_cache=False).backend_requested == "process"

    def test_malformed_env_warns_once_and_derives(self, monkeypatch):
        # "remote" names the retired socket backend: it must be rejected
        # like any other unknown name, not silently honoured
        for raw in ("quantum", "remote"):
            monkeypatch.setattr(experiments_mod, "_warned_envs", set())
            monkeypatch.setenv("REPRO_BACKEND", raw)
            with pytest.warns(RuntimeWarning, match="REPRO_BACKEND"):
                runner = ExperimentRunner(use_disk_cache=False)
            assert runner.backend_requested is None
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                again = ExperimentRunner(use_disk_cache=False)
            assert again.backend_requested is None

    def test_constructor_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        runner = ExperimentRunner(use_disk_cache=False, backend="serial")
        assert runner.backend_requested == "serial"

    def test_invalid_constructor_backend_raises(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            ExperimentRunner(use_disk_cache=False, backend="quantum")

    def test_backend_derives_from_worker_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert ExperimentRunner(
            use_disk_cache=False, jobs=2)._resolve_backend().name \
            == "process"
        assert ExperimentRunner(
            use_disk_cache=False, jobs=1)._resolve_backend().name \
            == "serial"

    def test_make_backend_rejects_unknown_and_auto(self):
        with pytest.raises(ValueError):
            make_backend("quantum")
        with pytest.raises(ValueError):
            make_backend("auto")  # auto is a picker, not a backend

    def test_backend_registry_shape(self):
        assert BACKEND_NAMES == ("serial", "process", "auto")
        assert SerialBackend().parallel is False
        assert ProcessBackend().parallel is True


class TestBackendObservability:
    def test_run_records_are_stamped_and_stats_show_the_column(
            self, tmp_path):
        """Simulated runs carry the backend that served them; the stats
        reducer tallies them into the per-app ``backend`` column and the
        ``backends —`` summary line."""
        log_dir = tmp_path / "logs"
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                  jobs=2, backend="process",
                                  log_dir=log_dir)
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
                                  backend="serial", log_dir=log_dir)
        runner.run("bing", presets.baseline())
        [record] = [r for r in iter_records(log_dir)
                    if r.get("kind") == "run"]
        assert record["backend"] == "serial"

    def test_worker_error_is_handed_back_not_raised(self, tmp_path,
                                                    monkeypatch,
                                                    recording_metrics):
        """A genuine exception inside a pool task lands in the serial
        ladder's bookkeeping (``error`` retries, ``GridTaskError`` after
        the budget) on every backend, instead of crashing ``run_many``."""
        def poisoned(self, app, cfg, **kwargs):
            raise RuntimeError("injected simulation bug")

        monkeypatch.setattr(ExperimentRunner, "_simulate", poisoned)
        for backend in ("serial", "process"):
            runner = ExperimentRunner(cache_dir=tmp_path / backend,
                                      scale=0.1, seed=0, jobs=2,
                                      backend=backend, max_attempts=1,
                                      retry_backoff=0.0)
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


class TestProbeTimeout:
    def test_probe_ceiling_honours_env(self, monkeypatch,
                                       fresh_auto_cache):
        """A loaded CI machine that forks slowly must not misclassify as
        "slow workers => serial" when ``REPRO_PROBE_TIMEOUT`` says the
        round-trip is acceptable."""
        monkeypatch.setattr(auto_mod, "_process_roundtrip",
                            lambda *a, **k: 2.0)
        monkeypatch.delenv("REPRO_PROBE_TIMEOUT", raising=False)
        assert auto_pick(cpus=4).backend == "serial"  # 2.0s > default 1s
        monkeypatch.setenv("REPRO_PROBE_TIMEOUT", "5.0")
        assert auto_pick(cpus=4).backend == "process"  # 2.0s < 5.0s

    def test_malformed_probe_timeout_degrades_to_default(self,
                                                         monkeypatch):
        monkeypatch.setenv("REPRO_PROBE_TIMEOUT", "soon")
        assert auto_mod.probe_ceiling_s() == auto_mod.ROUNDTRIP_CEILING_S
        monkeypatch.setenv("REPRO_PROBE_TIMEOUT", "-3")
        assert auto_mod.probe_ceiling_s() == auto_mod.ROUNDTRIP_CEILING_S
        monkeypatch.setenv("REPRO_PROBE_TIMEOUT", "0.25")
        assert auto_mod.probe_ceiling_s() == 0.25
