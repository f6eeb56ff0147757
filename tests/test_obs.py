"""Observability layer: JSONL run logs, progress, stats aggregation.

The contracts pinned here: run logging changes no simulation result,
run logs round-trip their schema and tolerate corruption, every cache
disposition is logged, and ``summarize`` turns a log directory into the
cache-hit/throughput/retry numbers ``repro stats`` reports.
"""

import io
import json

import pytest

from repro.obs.progress import ProgressLine
from repro.obs.runlog import RUNLOG_SCHEMA, RunLogWriter, iter_records
from repro.obs.stats import format_table, summarize
from repro.sim import presets
from repro.sim.experiments import ExperimentRunner
from repro.sim.experiments import _run_in_worker as _real_run_in_worker


class TestRunLogParity:
    def test_results_identical_with_and_without_run_log(self, tmp_path,
                                                        monkeypatch):
        """Logging every run must not perturb simulation results."""
        monkeypatch.delenv("REPRO_LOG_DIR", raising=False)
        config = presets.esp_nl()
        off = ExperimentRunner(cache_dir=tmp_path / "off", scale=0.25,
                               seed=0).run("pixlr", config)
        log_dir = tmp_path / "logs"
        on = ExperimentRunner(cache_dir=tmp_path / "on", scale=0.25,
                              seed=0, log_dir=log_dir).run("pixlr", config)
        assert off.to_dict() == on.to_dict()
        [record] = iter_records(log_dir)
        assert record["cache"] == "simulated"

    def test_cache_dispositions_and_trace_reuse(self, tmp_path):
        log_dir = tmp_path / "logs"
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0,
                                  log_dir=log_dir)
        config = presets.baseline()
        runner.run("pixlr", config)   # result miss, trace recorded
        runner.run("pixlr", config)   # memory hit
        [trace] = (tmp_path / "traces").glob("*.espt")
        recorded = trace.stat().st_mtime_ns
        fresh = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0,
                                 log_dir=log_dir)
        fresh.run("pixlr", config)    # disk hit, no trace needed
        # a new config misses the result cache but reuses the on-disk trace
        fresh.run("pixlr", presets.esp_nl())
        assert [r["cache"] for r in iter_records(log_dir)] \
            == ["simulated", "memory", "disk", "simulated"]
        assert len(list(tmp_path.glob("*.json"))) == 2
        assert trace.stat().st_mtime_ns == recorded
        assert list((tmp_path / "traces").glob("*.espt")) == [trace]


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
    def test_one_record_per_simulation(self, tmp_path):
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

    def test_pool_workers_log_their_peak_rss(self, tmp_path):
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

    def test_cache_hits_logged_with_disposition(self, tmp_path):
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

    def test_logging_off_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_LOG_DIR", raising=False)
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0)
        runner.run("bing", presets.baseline())
        assert not (tmp_path / "logs").exists()

    def test_log_dir_env_enables_logging(self, tmp_path, monkeypatch):
        log_dir = tmp_path / "env-logs"
        monkeypatch.setenv("REPRO_LOG_DIR", str(log_dir))
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0)
        runner.run("bing", presets.baseline())
        assert [r["cache"] for r in iter_records(log_dir)] == ["simulated"]
        assert not (tmp_path / "logs").exists()


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
            self, tmp_path, monkeypatch):
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
