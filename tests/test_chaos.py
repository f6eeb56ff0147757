"""Chaos suite: grids under injected faults end bit-identical to clean runs.

Every test here runs a real (apps × configs) grid with a ``REPRO_FAULTS``
spec active — seeded byte flips on freshly written traces, torn
result-cache writes, worker kills, injected mid-grid interrupts — and
asserts the final results equal a clean serial run bit for bit, with the
corruption events visible in metrics. The specs are deterministic
(decisions are pure functions of seed/kind/token/draw), so these storms
replay identically on every machine.
"""

import pytest

from repro.obs import metrics as metrics_mod
from repro.resilience import faults
from repro.sim import presets
from repro.sim.experiments import ExperimentRunner

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


@pytest.fixture
def recording_metrics():
    registry = metrics_mod.MetricsRegistry()
    previous = metrics_mod.set_registry(registry)
    yield registry
    metrics_mod.set_registry(previous)


def _arm(monkeypatch, spec):
    """Install ``spec`` as both the env value (workers re-parse it) and
    the parent's active plan."""
    monkeypatch.setenv("REPRO_FAULTS", spec)
    faults.set_fault_plan(faults.FaultPlan.from_spec(spec))


class TestCorruptionStorms:
    def test_trace_and_result_corruption_serial(self, tmp_path,
                                                monkeypatch,
                                                clean_reference,
                                                recording_metrics):
        """Heavy trace corruption + torn result writes, serially: results
        bit-identical, artifacts quarantined, events metered."""
        _arm(monkeypatch, "corrupt_trace:0.6,torn_write:0.6,seed:11")
        chaos = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                 jobs=1)
        got = [r.to_dict() for r in chaos.run_many(_pairs())]
        assert got == clean_reference
        # a second pass over the battered cache must also be identical —
        # corrupt survivors are detected, never deserialised wrongly
        again = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                 jobs=1)
        assert [r.to_dict() for r in again.run_many(_pairs())] \
            == clean_reference
        counters = recording_metrics.snapshot()["counters"]
        assert counters.get("faults.corrupt_trace", 0) \
            + counters.get("faults.torn_write", 0) >= 1
        assert counters.get("cache.corrupt", 0) >= 1
        assert list((tmp_path / "quarantine").glob("*.quarantined"))

    def test_worker_kill_storm_parallel(self, tmp_path, monkeypatch,
                                        clean_reference,
                                        recording_metrics):
        """Workers killed mid-grid (``os._exit``): the pool breaks, the
        parent completes the stragglers, results stay bit-identical."""
        _arm(monkeypatch, "kill_worker:0.5,seed:2")
        # worker-kill faults only fire inside process-pool workers: pin
        # the backend so an ambient REPRO_BACKEND can't defuse the storm
        chaos = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                 jobs=2, backend="process",
                                 task_timeout=120.0,
                                 max_attempts=6, retry_backoff=0.01)
        got = [r.to_dict() for r in chaos.run_many(_pairs())]
        assert got == clean_reference
        counters = recording_metrics.snapshot()["counters"]
        assert counters.get("runner.worker_deaths", 0) >= 1

    def test_combined_storm_parallel(self, tmp_path, monkeypatch,
                                     clean_reference):
        """Everything at once, over worker processes."""
        _arm(monkeypatch,
             "corrupt_trace:0.4,torn_write:0.4,kill_worker:0.3,seed:3")
        chaos = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                 jobs=2, backend="process",
                                 task_timeout=120.0,
                                 max_attempts=6, retry_backoff=0.01)
        got = [r.to_dict() for r in chaos.run_many(_pairs())]
        assert got == clean_reference


class TestMidSimResilience:
    def test_kill_mid_sim_storm_resumes_from_checkpoints(
            self, tmp_path, monkeypatch, clean_reference):
        """Workers killed *inside* the simulation loop: every retry
        resumes from the newest checkpoint generation and the grid still
        ends bit-identical, with the resumes visible in the run log and
        in ``repro stats``."""
        from repro.obs.runlog import iter_records
        from repro.obs.stats import format_table, summarize

        log_dir = tmp_path / "logs"
        _arm(monkeypatch, "kill_mid_sim:0.5,seed:3")
        chaos = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                 jobs=2, backend="process",
                                 task_timeout=60.0,
                                 max_attempts=6, retry_backoff=0.01,
                                 checkpoint_events=1, log_dir=log_dir)
        got = [r.to_dict() for r in chaos.run_many(_pairs())]
        assert got == clean_reference
        kinds = [r.get("kind") for r in iter_records(log_dir)]
        assert kinds.count("checkpoint") >= 1
        assert kinds.count("resume") >= 1
        # the stats reducer surfaces the resilience activity
        summary = summarize(iter_records(log_dir))
        assert summary["checkpoints"] >= 1
        assert summary["resumes"] >= 1
        assert "resilience —" in format_table(summary)

    def test_stalled_worker_killed_by_watchdog(self, tmp_path,
                                               monkeypatch,
                                               clean_reference):
        """Workers that hang mid-event (injected ``stall_worker`` sleeps)
        are detected by the heartbeat watchdog and killed; the broken-pool
        recovery resumes their tasks from checkpoints, bit-identically."""
        _arm(monkeypatch, "stall_worker:0.4,seed:11")
        chaos = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                 jobs=2, backend="process",
                                 task_timeout=60.0,
                                 max_attempts=6, retry_backoff=0.01,
                                 checkpoint_events=1,
                                 heartbeat_timeout=1.5)
        got = [r.to_dict() for r in chaos.run_many(_pairs())]
        assert got == clean_reference
        assert chaos.watchdog_kills >= 1

    def test_memory_pressure_evicts_and_recovers(self, tmp_path,
                                                 monkeypatch,
                                                 clean_reference):
        """An absurdly low RSS ceiling evicts every parallel worker; the
        serial retry lifts the ceiling (the reduced-fan-out recovery) and
        the grid completes bit-identically."""
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        faults.set_fault_plan(faults.FaultPlan())
        # the RSS ceiling is only armed in process-pool workers (never
        # in the parent's inline path): pin the backend
        chaos = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                 jobs=2, backend="process",
                                 task_timeout=60.0,
                                 max_attempts=6, retry_backoff=0.01,
                                 checkpoint_events=1, mem_limit_mb=1)
        got = [r.to_dict() for r in chaos.run_many(_pairs())]
        assert got == clean_reference
        assert chaos.retries >= 1


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
            # interrupts fire on the serial completion path: pin the
            # backend so an ambient REPRO_BACKEND can't bypass them
            runner = ExperimentRunner(cache_dir=tmp_path, scale=0.1,
                                      seed=0, jobs=1, backend="serial")
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
