"""Observability layer: metrics registry, JSONL run logs, progress,
stats aggregation.

The contracts pinned here: the no-op default registry records nothing and
changes no simulation result (metrics on/off parity), run logs round-trip
their schema and tolerate corruption, and ``summarize`` turns a log
directory into the cache-hit/throughput/retry numbers ``repro stats``
reports.
"""

import io
import json

import pytest

from repro.obs import metrics as metrics_mod
from repro.obs.metrics import (
    MetricsRegistry,
    NullMetricsRegistry,
    get_registry,
)
from repro.obs.progress import ProgressLine
from repro.obs.runlog import RUNLOG_SCHEMA, RunLogWriter, iter_records
from repro.obs.stats import format_table, summarize
from repro.sim import presets
from repro.sim.experiments import ExperimentRunner
from repro.sim.experiments import _run_in_worker as _real_run_in_worker


@pytest.fixture
def recording(monkeypatch):
    """Install a fresh recording registry for the duration of one test."""
    registry = MetricsRegistry()
    monkeypatch.setattr(metrics_mod, "_REGISTRY", registry)
    return registry


@pytest.fixture
def null_registry(monkeypatch):
    """Force the no-op registry regardless of REPRO_METRICS."""
    registry = NullMetricsRegistry()
    monkeypatch.setattr(metrics_mod, "_REGISTRY", registry)
    return registry


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        assert reg.counter("a").value == 5

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 1.0)
        reg.set_gauge("g", 7.5)
        assert reg.gauge("g").value == 7.5

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for v in (2.0, 4.0, 12.0):
            reg.observe("h", v)
        h = reg.histogram("h")
        assert h.count == 3
        assert h.mean == 6.0
        assert h.minimum == 2.0
        assert h.maximum == 12.0

    def test_snapshot_is_json_serialisable(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.set_gauge("g", 1.5)
        reg.observe("h", 3.0)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["counters"]["c"] == 2
        assert snap["gauges"]["g"] == 1.5
        assert snap["histograms"]["h"]["count"] == 1

    def test_null_registry_records_nothing(self):
        reg = NullMetricsRegistry()
        reg.inc("a", 5)
        reg.set_gauge("g", 1.0)
        reg.observe("h", 2.0)
        assert not reg.enabled
        snap = reg.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_env_enables_recording(self, monkeypatch):
        monkeypatch.setattr(metrics_mod, "_REGISTRY", None)
        monkeypatch.setenv("REPRO_METRICS", "1")
        assert get_registry().enabled

    def test_env_default_is_noop(self, monkeypatch):
        monkeypatch.setattr(metrics_mod, "_REGISTRY", None)
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        assert not get_registry().enabled

    def test_reset_drops_instruments(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.reset()
        assert reg.snapshot()["counters"] == {}


class TestMetricsParity:
    def test_results_identical_with_and_without_metrics(self, tmp_path,
                                                        monkeypatch):
        """Recording metrics must not perturb simulation results."""
        config = presets.esp_nl()
        monkeypatch.setattr(metrics_mod, "_REGISTRY",
                            NullMetricsRegistry())
        off = ExperimentRunner(cache_dir=tmp_path / "off", scale=0.25,
                               seed=0).run("pixlr", config)
        registry = MetricsRegistry()
        monkeypatch.setattr(metrics_mod, "_REGISTRY", registry)
        on = ExperimentRunner(cache_dir=tmp_path / "on", scale=0.25,
                              seed=0).run("pixlr", config)
        assert off.to_dict() == on.to_dict()
        counters = registry.snapshot()["counters"]
        assert counters["sim.runs"] == 1
        assert counters["sim.instructions"] == on.instructions
        assert counters["esp.context_switches"] > 0
        assert counters["mem.l1i.hits"] > 0
        assert counters["cache.result.miss"] == 1

    def test_cache_counters_track_dispositions(self, tmp_path, recording):
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0)
        config = presets.baseline()
        runner.run("pixlr", config)   # result miss, trace recorded
        runner.run("pixlr", config)   # memory hit
        fresh = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0)
        fresh.run("pixlr", config)    # disk hit, no trace needed
        # a new config misses the result cache but reuses the on-disk trace
        fresh.run("pixlr", presets.esp_nl())
        counters = recording.snapshot()["counters"]
        assert counters["cache.result.miss"] == 2
        assert counters["cache.result.hit"] == 2
        assert counters["cache.result.stored"] == 2
        assert counters["cache.trace.miss"] == 1
        assert counters["cache.trace.hit"] == 1


class TestRunLogWriter:
    def test_record_round_trip(self, tmp_path):
        writer = RunLogWriter(tmp_path)
        writer.write({"kind": "run", "app": "bing", "simulate_s": 1.25})
        (record,) = iter_records(tmp_path)
        assert record["schema"] == RUNLOG_SCHEMA
        assert record["kind"] == "run"
        assert record["app"] == "bing"
        assert record["simulate_s"] == 1.25

    def test_disabled_writer_writes_nothing(self, tmp_path):
        writer = RunLogWriter(None)
        assert not writer.enabled
        writer.write({"kind": "run"})
        assert list(iter_records(tmp_path)) == []

    def test_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('{"kind":"run","app":"a"}\n'
                        "{torn-write\n"
                        '"not-an-object"\n'
                        '{"kind":"run","app":"b"}\n')
        apps = [r["app"] for r in iter_records(tmp_path)]
        assert apps == ["a", "b"]

    def test_missing_directory_yields_nothing(self, tmp_path):
        assert list(iter_records(tmp_path / "nope")) == []

    def test_unwritable_directory_disables(self, tmp_path, monkeypatch):
        writer = RunLogWriter(tmp_path / "logs")

        def denied(*args, **kwargs):
            raise OSError("read-only")

        monkeypatch.setattr("repro.obs.runlog.os.open", denied)
        writer.write({"kind": "run"})
        assert not writer.enabled


class TestRunnerLogging:
    def test_one_record_per_simulation(self, tmp_path, null_registry):
        log_dir = tmp_path / "logs"
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0,
                                  log_dir=log_dir)
        pairs = [("bing", presets.baseline()), ("pixlr", presets.baseline()),
                 ("bing", presets.nl())]
        runner.run_many(pairs)
        records = [r for r in iter_records(log_dir) if r["kind"] == "run"]
        assert len(records) == 3
        assert all(r["cache"] == "simulated" for r in records)
        for field in ("key", "app", "config", "config_digest", "scale",
                      "seed", "pid", "trace_load_s", "simulate_s",
                      "store_s", "ts"):
            assert all(field in r for r in records), field

    def test_pool_workers_log_their_peak_rss(self, tmp_path,
                                             null_registry):
        log_dir = tmp_path / "logs"
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.05, seed=0,
                                  jobs=2, log_dir=log_dir)
        runner.run_many([("pixlr", presets.baseline()),
                         ("pixlr", presets.nl())])
        runner.run("pixlr", presets.nl_s())  # in the parent
        by_backend = {r["backend"]: r for r in iter_records(log_dir)
                      if r["kind"] == "run"}
        assert by_backend["process"]["peak_rss_mb"] > 0
        assert "peak_rss_mb" not in by_backend["serial"]

    def test_cache_hits_logged_with_disposition(self, tmp_path,
                                                null_registry):
        log_dir = tmp_path / "logs"
        config = presets.baseline()
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0,
                                  log_dir=log_dir)
        runner.run("bing", config)
        runner.run("bing", config)
        fresh = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0,
                                 log_dir=log_dir)
        fresh.run("bing", config)
        dispositions = [r["cache"] for r in iter_records(log_dir)
                        if r["kind"] == "run"]
        assert dispositions == ["simulated", "memory", "disk"]

    def test_logging_off_by_default(self, tmp_path, null_registry,
                                    monkeypatch):
        monkeypatch.delenv("REPRO_LOG_DIR", raising=False)
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0)
        runner.run("bing", presets.baseline())
        assert not (tmp_path / "logs").exists()

    def test_metrics_enable_logging_next_to_cache(self, tmp_path,
                                                  recording, monkeypatch):
        monkeypatch.delenv("REPRO_LOG_DIR", raising=False)
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0)
        runner.run("bing", presets.baseline())
        assert list(iter_records(tmp_path / "logs"))


class TestProgressLine:
    def test_renders_counts_in_place(self):
        stream = io.StringIO()
        progress = ProgressLine(4, stream=stream, enabled=True)
        progress.advance(note="bing")
        progress.advance(2)
        out = stream.getvalue()
        assert "[1/4]" in out
        assert "[3/4]" in out
        assert "bing" in out
        assert "\n" not in out

    def test_close_erases_the_line(self):
        stream = io.StringIO()
        progress = ProgressLine(2, stream=stream, enabled=True)
        progress.advance()
        progress.close()
        assert stream.getvalue().endswith("\r")

    def test_disabled_writes_nothing(self):
        stream = io.StringIO()
        progress = ProgressLine(3, stream=stream, enabled=False)
        progress.advance()
        progress.close()
        assert stream.getvalue() == ""

    def test_non_tty_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROGRESS", raising=False)
        assert not ProgressLine(3, stream=io.StringIO()).enabled

    def test_env_forces_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        assert ProgressLine(3, stream=io.StringIO()).enabled

    def test_env_forces_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRESS", "0")

        class Tty(io.StringIO):
            def isatty(self):
                return True

        assert not ProgressLine(3, stream=Tty()).enabled


def _run_record(app, cache, simulate_s=0.0, **extra):
    record = {"kind": "run", "app": app, "cache": cache,
              "simulate_s": simulate_s, "trace_load_s": 0.0,
              "store_s": 0.0}
    record.update(extra)
    return record


class TestStatsAggregation:
    RECORDS = [
        _run_record("bing", "simulated", simulate_s=2.0),
        _run_record("bing", "simulated", simulate_s=4.0),
        _run_record("bing", "memory"),
        _run_record("bing", "disk"),
        _run_record("pixlr", "simulated", simulate_s=1.0),
        {"kind": "retry", "app": "bing", "reason": "worker-died"},
    ]

    def test_totals_and_hit_rate(self):
        summary = summarize(self.RECORDS)
        assert summary["runs"] == 5
        assert summary["simulated"] == 3
        assert summary["cache_hits"] == 2
        assert summary["cache_hit_rate"] == pytest.approx(0.4)
        assert summary["retries"] == 1
        assert summary["simulate_s"] == pytest.approx(7.0)

    def test_per_app_throughput(self):
        apps = summarize(self.RECORDS)["apps"]
        bing = apps["bing"]
        assert bing["runs"] == 4
        assert bing["simulated"] == 2
        assert bing["hit_rate"] == pytest.approx(0.5)
        assert bing["mean_simulate_s"] == pytest.approx(3.0)
        assert bing["throughput_per_s"] == pytest.approx(2 / 6.0)
        assert bing["retries"] == 1
        assert apps["pixlr"]["throughput_per_s"] == pytest.approx(1.0)

    def test_worker_peak_rss_is_the_maximum(self):
        records = self.RECORDS + [
            _run_record("bing", "simulated", peak_rss_mb=61.5),
            _run_record("pixlr", "simulated", peak_rss_mb=88.4)]
        summary = summarize(records)
        assert summary["worker_peak_rss_mb"] == 88.4
        assert "worker peak RSS — 88.4 MB" in format_table(summary)
        assert summarize(self.RECORDS)["worker_peak_rss_mb"] is None

    def test_empty_records(self):
        summary = summarize([])
        assert summary["runs"] == 0
        assert summary["cache_hit_rate"] == 0.0
        assert format_table(summary) == "no run records found"

    def test_table_lists_every_app_and_total(self):
        table = format_table(summarize(self.RECORDS))
        for token in ("bing", "pixlr", "total", "hit%", "sims/s"):
            assert token in table

    def test_summary_round_trips_through_json(self):
        summary = summarize(self.RECORDS)
        assert json.loads(json.dumps(summary)) == summary


class TestWorkerRetryPath:
    def test_poisoned_worker_fails_once_then_batch_completes(
            self, tmp_path, null_registry, monkeypatch):
        """Inject a worker that dies on its first task: the batch must
        still return every result, and the retry must be recorded."""
        poison = tmp_path / "poison"
        poison.touch()
        monkeypatch.setattr("repro.sim.experiments._run_in_worker",
                            _poisoned_worker)
        monkeypatch.setenv("REPRO_POISON_FILE", str(poison))
        log_dir = tmp_path / "logs"
        # the poisoned worker is a process-pool stand-in: pin jobs=2 so
        # an ambient REPRO_JOBS can't reroute the batch around it
        runner = ExperimentRunner(cache_dir=tmp_path / "cache", scale=0.25,
                                  seed=0, jobs=2,
                                  log_dir=log_dir)
        pairs = [("bing", presets.baseline()), ("pixlr", presets.baseline())]
        results = runner.run_many(pairs)
        assert [r.app for r in results] == ["bing", "pixlr"]
        assert runner.retries >= 1
        retries = [r for r in iter_records(log_dir) if r["kind"] == "retry"]
        assert retries
        # one pool break is ONE worker death; any sibling task flooded
        # with the same BrokenProcessPool is requeued, not a new corpse
        reasons = [r["reason"] for r in retries]
        assert reasons.count("worker-died") == 1
        assert set(reasons) <= {"worker-died", "requeued"}


def _poisoned_worker(app, config, scale, seed, cache_dir, use_disk_cache,
                     log_dir=None, **kwargs):
    """Worker entry point that dies abruptly on its first invocation (the
    poison file marks the pending failure), then behaves normally. Only
    the process that wins the unlink dies, so concurrent workers cannot
    race into a double failure."""
    import os

    poison = os.environ.get("REPRO_POISON_FILE", "")
    if poison:
        try:
            os.unlink(poison)
        except FileNotFoundError:
            pass
        else:
            os._exit(17)
    return _real_run_in_worker(app, config, scale, seed, cache_dir,
                               use_disk_cache, log_dir, **kwargs)
