"""Chaos suite: grids under injected faults end bit-identical to clean runs.

Every test here runs a real (apps × configs) grid with a ``REPRO_FAULTS``
spec active — seeded byte flips on freshly written traces, torn
result-cache writes, worker kills, injected mid-grid interrupts — and
asserts the final results equal a clean serial run bit for bit, with the
corruption events and lost workers visible in the run log. The specs are
deterministic (decisions are pure functions of seed/kind/token/draw), so
these storms replay identically on every machine.
"""

import os
import time
from functools import partial

import pytest

from repro.obs.runlog import iter_records
from repro.obs.stats import summarize
from repro.resilience import faults
from repro.sim import presets
from repro.sim.experiments import ExperimentRunner
from repro.sim.experiments import _run_in_worker as _real_run_in_worker

pytestmark = pytest.mark.chaos

APPS = ("bing", "pixlr")
CONFIGS = ("baseline", "nl")


def _pairs():
    return [(app, presets.by_name(name)) for name in CONFIGS
            for app in APPS]


@pytest.fixture(scope="module")
def clean_reference(tmp_path_factory):
    """Result dicts of the grid run serially with no faults anywhere."""
    previous = faults.set_fault_plan(faults.FaultPlan())
    try:
        runner = ExperimentRunner(
            cache_dir=tmp_path_factory.mktemp("clean"), scale=0.1, seed=0,
            jobs=1)
        return [r.to_dict() for r in runner.run_many(_pairs())]
    finally:
        faults.set_fault_plan(previous)


def _arm(monkeypatch, spec):
    """Install ``spec`` as both the env value (workers re-parse it) and
    the parent's active plan."""
    monkeypatch.setenv("REPRO_FAULTS", spec)
    faults.set_fault_plan(faults.FaultPlan.from_spec(spec))


class TestCorruptionStorms:
    def test_trace_and_result_corruption_serial(self, tmp_path,
                                                monkeypatch,
                                                clean_reference):
        """Heavy trace corruption + torn result writes, serially: results
        bit-identical, artifacts quarantined, events logged."""
        _arm(monkeypatch, "corrupt_trace:0.6,torn_write:0.6,seed:11")
        log_dir = tmp_path / "logs"
        chaos = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                 jobs=1, log_dir=log_dir)
        got = [r.to_dict() for r in chaos.run_many(_pairs())]
        assert got == clean_reference
        # a second pass over the battered cache must also be identical —
        # corrupt survivors are detected, never deserialised wrongly
        again = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                 jobs=1, log_dir=log_dir)
        assert [r.to_dict() for r in again.run_many(_pairs())] \
            == clean_reference
        assert summarize(iter_records(log_dir))["corruptions"] >= 1
        assert list((tmp_path / "quarantine").glob("*.quarantined"))

    def test_worker_kill_storm_parallel(self, tmp_path, monkeypatch,
                                        clean_reference):
        """Workers killed mid-grid (``os._exit``): the pool breaks, the
        parent completes the stragglers, results stay bit-identical."""
        _arm(monkeypatch, "kill_worker:0.5,seed:2")
        log_dir = tmp_path / "logs"
        # worker-kill faults only fire inside process-pool workers: pin
        # jobs=2 so an ambient REPRO_JOBS can't defuse the storm
        chaos = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                 jobs=2,
                                 task_timeout=120.0,
                                 max_attempts=6, retry_backoff=0.01,
                                 log_dir=log_dir)
        got = [r.to_dict() for r in chaos.run_many(_pairs())]
        assert got == clean_reference
        records = list(iter_records(log_dir))
        assert [r["reason"] for r in records
                if r["kind"] == "retry"].count("worker-died") >= 1
        # every task has a run record, from a worker or the parent
        assert len({r["key"] for r in records if r["kind"] == "run"}) \
            == len(_pairs())

    def test_combined_storm_parallel(self, tmp_path, monkeypatch,
                                     clean_reference):
        """Everything at once, over worker processes."""
        _arm(monkeypatch,
             "corrupt_trace:0.4,torn_write:0.4,kill_worker:0.3,seed:3")
        chaos = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                 jobs=2,
                                 task_timeout=120.0,
                                 max_attempts=6, retry_backoff=0.01)
        got = [r.to_dict() for r in chaos.run_many(_pairs())]
        assert got == clean_reference


#: per-attempt deadline of the worker-lost tests; a scale-0.1 task
#: finishes well inside it
LOST_TIMEOUT_S = 2.5


def _lost_after_start_worker(app, config, scale, seed, cache_dir,
                             use_disk_cache, log_dir=None, attempt=1, *,
                             mode, attempts_log=None, **kwargs):
    """Worker stand-in that loses bing's first attempt after the
    simulation began: the runner is built and the recorded trace loaded,
    then the worker dies (``mode="die"``) or hangs past the task deadline
    (``mode="hang"``). Later attempts, and every other app, run normally
    (module-level so it pickles under fork and spawn alike). Each call
    appends ``"<app> <attempt>"`` to ``attempts_log`` when one is given."""
    if attempts_log is not None:
        with open(attempts_log, "a") as log:
            log.write(f"{app} {attempt}\n")
    if app == "bing" and attempt == 1:
        runner = ExperimentRunner(cache_dir=cache_dir, scale=scale,
                                  seed=seed, use_disk_cache=use_disk_cache,
                                  jobs=1, log_dir=log_dir)
        runner.trace(app)
        if mode == "die":
            os._exit(137)
        time.sleep(4 * LOST_TIMEOUT_S)
    return _real_run_in_worker(app, config, scale, seed, cache_dir,
                               use_disk_cache, log_dir, attempt, **kwargs)


def _out_of_memory_worker(app, config, scale, seed, cache_dir,
                          use_disk_cache, log_dir=None, attempt=1,
                          **kwargs):
    """Worker stand-in whose first attempt at every task runs out of
    memory (module-level so it pickles under fork and spawn alike)."""
    if attempt == 1:
        raise MemoryError(f"{app}: out of memory")
    return _real_run_in_worker(app, config, scale, seed, cache_dir,
                               use_disk_cache, log_dir, attempt, **kwargs)


class TestMidSimResilience:
    @pytest.mark.parametrize("mode", ["die", "hang"])
    def test_worker_lost_after_start_reruns_bit_identical(
            self, tmp_path, monkeypatch, clean_reference, mode):
        """A worker lost mid-simulation — killed, or hung past
        ``task_timeout`` — costs its task one re-run from the first
        event through the retry ladder, and the grid still ends
        bit-identical to a clean serial run."""
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        faults.set_fault_plan(faults.FaultPlan())
        monkeypatch.setattr("repro.sim.experiments._run_in_worker",
                            partial(_lost_after_start_worker, mode=mode))
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                  jobs=2,
                                  task_timeout=LOST_TIMEOUT_S,
                                  max_attempts=6, retry_backoff=0.01)
        got = [r.to_dict() for r in runner.run_many(_pairs())]
        assert got == clean_reference
        assert runner.retries >= 1

    def test_pool_hang_is_retried_serially_at_attempt_2(
            self, tmp_path, monkeypatch, clean_reference):
        """The pool's try at a task is attempt 1. A task hung in the pool
        times out once and its serial retry runs as attempt 2, so a fault
        keyed to attempt 1 does not fire again on the retry."""
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        faults.set_fault_plan(faults.FaultPlan())
        attempts_log = tmp_path / "attempts.log"
        monkeypatch.setattr("repro.sim.experiments._run_in_worker",
                            partial(_lost_after_start_worker, mode="hang",
                                    attempts_log=str(attempts_log)))
        log_dir = tmp_path / "logs"
        runner = ExperimentRunner(cache_dir=tmp_path / "cache", scale=0.1,
                                  seed=0, jobs=2,
                                  task_timeout=LOST_TIMEOUT_S,
                                  max_attempts=6, retry_backoff=0.01,
                                  log_dir=log_dir)
        got = [r.to_dict() for r in runner.run_many(_pairs())]
        assert got == clean_reference
        calls = attempts_log.read_text().split("\n")[:-1]
        hung = sum(app == "bing" for app, _ in _pairs())
        assert sorted(call for call in calls if call.startswith("bing")) \
            == ["bing 1"] * hung + ["bing 2"] * hung
        assert all(call == "pixlr 1" for call in calls
                   if call.startswith("pixlr"))
        # only the pool's tries timed out (concurrently: one deadline of
        # wall time); no serial retry hung again
        reasons = [r["reason"] for r in iter_records(log_dir)
                   if r["kind"] == "retry"]
        assert reasons.count("timeout") == hung

    def test_worker_memory_error_is_retried_bit_identical(
            self, tmp_path, monkeypatch, clean_reference):
        """A worker out of memory raises ``MemoryError`` out of its
        first attempt: the pool hands it back as a task error, the
        serial ladder re-runs it, and the grid still ends bit-identical
        to a clean serial run."""
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        faults.set_fault_plan(faults.FaultPlan())
        monkeypatch.setattr("repro.sim.experiments._run_in_worker",
                            _out_of_memory_worker)
        log_dir = tmp_path / "logs"
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                  jobs=2, max_attempts=3,
                                  retry_backoff=0.01, log_dir=log_dir)
        got = [r.to_dict() for r in runner.run_many(_pairs())]
        assert got == clean_reference
        reasons = [record["reason"] for record in iter_records(log_dir)
                   if record.get("kind") == "retry"]
        assert reasons == ["error"] * len(_pairs())


class TestInterruptResume:
    def test_interrupt_storm_resumes_to_identical_results(
            self, tmp_path, monkeypatch, clean_reference):
        """Injected mid-grid interrupts (stand-ins for Ctrl-C): each one
        leaves a consistent manifest; resuming until the storm passes
        completes the campaign with bit-identical results."""
        _arm(monkeypatch, "interrupt:0.5,seed:7")
        interrupts = 0
        results = None
        for _ in range(40):  # the storm is finite: draws advance
            # interrupts fire on the serial completion path: pin jobs=1
            # and no timeout so an ambient REPRO_JOBS or
            # REPRO_TASK_TIMEOUT can't send the tasks to a pool
            runner = ExperimentRunner(cache_dir=tmp_path, scale=0.1,
                                      seed=0, jobs=1, task_timeout=0)
            try:
                results = runner.run_many(_pairs(), label="chaos")
                break
            except KeyboardInterrupt:
                interrupts += 1
        assert results is not None, "interrupt storm never subsided"
        assert interrupts >= 1
        assert [r.to_dict() for r in results] == clean_reference
        # the manifest closed out; nothing is left to resume
        faults.set_fault_plan(faults.FaultPlan())
        final = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                 jobs=1)
        assert final.resume_grid() is None
