"""Tests for the experiment runner and its result cache."""

import os
import time
import warnings
from pathlib import Path

import pytest

import repro.sim.experiments as experiments_mod
from repro.sim import presets
from repro.sim.experiments import (STALE_TMP_SECONDS,
                                   TMP_CLOCK_TOLERANCE_SECONDS,
                                   ExperimentRunner, default_cache_dir,
                                   default_scale, default_seed,
                                   default_task_timeout)
from repro.sim.config import SimConfig
from repro.sim.results import RESULT_SCHEMA


@pytest.fixture
def runner(tmp_path):
    return ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0)


class TestRunner:
    def test_run_produces_result(self, runner):
        r = runner.run("pixlr", SimConfig())
        assert r.app == "pixlr"
        assert r.instructions > 0

    def test_memory_cache(self, runner):
        a = runner.run("pixlr", SimConfig())
        b = runner.run("pixlr", SimConfig())
        assert a is b

    def test_disk_cache(self, tmp_path):
        r1 = ExperimentRunner(cache_dir=tmp_path, scale=0.25)
        a = r1.run("pixlr", SimConfig())
        r2 = ExperimentRunner(cache_dir=tmp_path, scale=0.25)
        b = r2.run("pixlr", SimConfig())
        assert a is not b
        assert a.cycles == b.cycles
        assert list(tmp_path.glob("*.json"))

    def test_cache_keyed_by_config(self, runner):
        a = runner.run("pixlr", SimConfig())
        b = runner.run("pixlr", presets.nl())
        assert a.cycles != b.cycles

    def test_cache_keyed_by_scale(self, tmp_path):
        a = ExperimentRunner(cache_dir=tmp_path, scale=0.25).run(
            "pixlr", SimConfig())
        b = ExperimentRunner(cache_dir=tmp_path, scale=0.4).run(
            "pixlr", SimConfig())
        assert a.instructions != b.instructions

    def test_corrupt_cache_entry_recovers(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.25)
        runner.run("pixlr", SimConfig())
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json")
        fresh = ExperimentRunner(cache_dir=tmp_path, scale=0.25)
        r = fresh.run("pixlr", SimConfig())
        assert r.instructions > 0

    def test_clear_cache(self, runner, tmp_path):
        runner.run("pixlr", SimConfig())
        runner.clear_cache()
        assert not list(tmp_path.glob("*.json"))
        assert not runner._memory

    def test_grid(self, runner):
        grid = runner.grid([SimConfig(name="baseline"), presets.nl()],
                           apps=["pixlr"])
        assert set(grid) == {"baseline", "NL"}
        assert "pixlr" in grid["NL"]

    def test_trace_shared(self, runner):
        assert runner.trace("pixlr") is runner.trace("pixlr")

    def test_env_defaults(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        monkeypatch.setenv("REPRO_SEED", "3")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner = ExperimentRunner()
        assert runner.scale == 0.5
        assert runner.seed == 3
        assert runner.cache_dir == tmp_path

    def test_result_config_named_after_preset(self, runner):
        r = runner.run("pixlr", presets.nl())
        assert r.config == "NL"


class TestCacheKeySchema:
    def test_key_includes_schema_digest(self, runner):
        assert runner._key("pixlr", SimConfig()).endswith(RESULT_SCHEMA)

    def test_stale_schema_entries_invisible(self, runner, tmp_path,
                                            monkeypatch):
        a = runner.run("pixlr", SimConfig())
        old_key = runner._key("pixlr", SimConfig())
        # a different SimResult layout produces a different digest, so
        # old entries simply stop matching instead of deserialising wrongly
        monkeypatch.setattr("repro.sim.experiments.RESULT_SCHEMA",
                            "00000000")
        fresh = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0)
        key = fresh._key("pixlr", SimConfig())
        assert key != old_key
        assert fresh._load_cached(key) is None
        b = fresh.run("pixlr", SimConfig())
        assert b.to_dict() == a.to_dict()


class TestDefaultCacheDir:
    def test_env_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert default_cache_dir() == tmp_path / "env"

    def test_repo_root_when_writable(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        import repro.sim.experiments as mod
        repo_root = Path(mod.__file__).resolve().parents[3]
        assert default_cache_dir() == repo_root / ".repro_cache"

    def test_falls_back_to_cwd_when_readonly(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(os, "access", lambda *a, **k: False)
        assert default_cache_dir() == tmp_path / ".repro_cache"


class TestEnvFallback:
    """Malformed harness env vars fall back with one warning, never crash."""

    @pytest.fixture(autouse=True)
    def _fresh_warning_state(self, monkeypatch):
        monkeypatch.setattr(experiments_mod, "_warned_envs", set())

    def test_malformed_scale_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "huge")
        with pytest.warns(RuntimeWarning, match="REPRO_SCALE"):
            assert default_scale() == 1.0

    def test_malformed_seed_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "0x2a")
        with pytest.warns(RuntimeWarning, match="REPRO_SEED"):
            assert default_seed() == 0

    def test_malformed_timeout_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "forever")
        with pytest.warns(RuntimeWarning, match="REPRO_TASK_TIMEOUT"):
            assert default_task_timeout() is None

    def test_nonpositive_timeout_means_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0")
        assert default_task_timeout() is None
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "-3")
        assert default_task_timeout() is None

    def test_valid_values_still_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        monkeypatch.setenv("REPRO_SEED", "7")
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2.5")
        assert default_scale() == 0.5
        assert default_seed() == 7
        assert default_task_timeout() == 2.5

    def test_warning_emitted_only_once_per_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "huge")
        with pytest.warns(RuntimeWarning):
            default_scale()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert default_scale() == 1.0
        assert caught == []

    def test_malformed_scale_runner_constructs(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "huge")
        with pytest.warns(RuntimeWarning):
            runner = ExperimentRunner(cache_dir=tmp_path, seed=0)
        assert runner.scale == 1.0


class TestScaleKeyNormalization:
    """``scale=1`` (int) and ``scale=1.0`` (float) share cache entries."""

    def test_int_and_float_scale_share_keys(self, tmp_path):
        a = ExperimentRunner(cache_dir=tmp_path, scale=1, seed=0)
        b = ExperimentRunner(cache_dir=tmp_path, scale=1.0, seed=0)
        config = SimConfig()
        assert a._key("pixlr", config) == b._key("pixlr", config)
        assert a._trace_path("pixlr") == b._trace_path("pixlr")

    def test_int_scale_reads_float_scale_entry(self, tmp_path):
        # seed one real result (cheap scale), file it under the float
        # runner's full-scale key, and read it back through the int runner
        result = ExperimentRunner(cache_dir=tmp_path / "seed", scale=0.25,
                                  seed=0).run("pixlr", SimConfig())
        writer = ExperimentRunner(cache_dir=tmp_path, scale=1.0, seed=0)
        writer._store(writer._key("pixlr", SimConfig()), result)
        reader = ExperimentRunner(cache_dir=tmp_path, scale=1, seed=0)
        cached = reader._load_cached(reader._key("pixlr", SimConfig()))
        assert cached is not None
        assert cached.to_dict() == result.to_dict()


class TestStaleTmpSweep:
    """Construction sweeps ``*.tmp`` files orphaned by dead writers."""

    def _age(self, path):
        # past the cutoff *including* the clock-step tolerance band
        old = (time.time() - STALE_TMP_SECONDS
               - TMP_CLOCK_TOLERANCE_SECONDS - 60)
        os.utime(path, (old, old))

    def test_stale_tmp_removed_fresh_kept(self, tmp_path):
        (tmp_path / "traces").mkdir(parents=True)
        stale = tmp_path / "abc.json.123.tmp"
        stale.write_text("{partial")
        stale_trace = tmp_path / "traces" / "pixlr.espt.456.tmp"
        stale_trace.write_bytes(b"partial")
        fresh = tmp_path / "def.json.789.tmp"
        fresh.write_text("{live")
        self._age(stale)
        self._age(stale_trace)
        ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0)
        assert not stale.exists()
        assert not stale_trace.exists()
        assert fresh.exists()  # young: may belong to a live writer

    def test_no_sweep_without_disk_cache(self, tmp_path):
        stale = tmp_path / "abc.json.1.tmp"
        stale.write_text("{partial")
        self._age(stale)
        ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0,
                         use_disk_cache=False)
        assert stale.exists()

    def test_regular_cache_files_untouched(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0)
        runner.run("pixlr", SimConfig())
        (entry,) = tmp_path.glob("*.json")
        self._age(entry)
        ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0)
        assert entry.exists()

    def test_forward_clock_step_cannot_sweep_a_live_writer(
            self, tmp_path, monkeypatch):
        """Regression: the cutoff used to come straight off
        ``time.time()``, so an NTP step forward between a live writer
        stamping its temp file and the sweep running made a seconds-old
        file look hours stale and deleted it out from under the writer.
        The monotonic-anchored clock floor must keep it alive."""
        fresh = tmp_path / "live.json.111.tmp"
        fresh.write_text("{live")
        real_time = time.time
        step = STALE_TMP_SECONDS + TMP_CLOCK_TOLERANCE_SECONDS + 3600
        monkeypatch.setattr(experiments_mod.time, "time",
                            lambda: real_time() + step)
        ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0)
        assert fresh.exists()

    def test_near_cutoff_files_deferred_not_deleted(self, tmp_path):
        """A file inside the tolerance band (stale by the nominal
        cutoff, fresh by the hardened one) survives the sweep and is
        counted in ``cache.tmp_sweep_deferred``."""
        from repro.obs import metrics as metrics_mod

        registry = metrics_mod.MetricsRegistry()
        previous = metrics_mod.set_registry(registry)
        try:
            near = tmp_path / "near.json.222.tmp"
            near.write_text("{near-cutoff")
            old = time.time() - STALE_TMP_SECONDS - 60
            os.utime(near, (old, old))
            gone = tmp_path / "gone.json.333.tmp"
            gone.write_text("{orphan")
            self._age(gone)
            ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0)
            counters = registry.snapshot()["counters"]
            assert near.exists()
            assert not gone.exists()
            assert counters.get("cache.tmp_sweep_deferred") == 1
            assert counters.get("cache.tmp_swept") == 1
        finally:
            metrics_mod.set_registry(previous)


class TestTraceCache:
    def test_trace_recorded_and_reloaded(self, tmp_path):
        from repro.isa.tracefile import LoadedTrace

        first = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0)
        generated = first.trace("pixlr")
        files = list((tmp_path / "traces").glob("pixlr-*.espt"))
        assert len(files) == 1
        second = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0)
        loaded = second.trace("pixlr")
        assert isinstance(loaded, LoadedTrace)
        assert len(loaded) == len(generated)
        for k in range(len(loaded)):
            assert (loaded.event(k).true_stream
                    == generated.event(k).true_stream)

    def test_loaded_trace_results_identical(self, tmp_path):
        first = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0)
        a = first.run("pixlr", presets.esp_nl())  # generated trace
        for path in tmp_path.glob("*.json"):
            path.unlink()  # drop results, keep the recorded trace
        from repro.isa.tracefile import LoadedTrace

        fresh = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0)
        assert isinstance(fresh.trace("pixlr"), LoadedTrace)
        b = fresh.run("pixlr", presets.esp_nl())
        assert a.to_dict() == b.to_dict()

    def test_corrupt_trace_file_regenerates(self, tmp_path):
        first = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0)
        first.trace("pixlr")
        (trace_file,) = (tmp_path / "traces").glob("pixlr-*.espt")
        trace_file.write_bytes(b"ESPTgarbage")
        fresh = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0)
        trace = fresh.trace("pixlr")
        assert len(trace) > 0
        # the corrupt file was replaced with a good recording
        (rewritten,) = (tmp_path / "traces").glob("pixlr-*.espt")
        assert rewritten.read_bytes() != b"ESPTgarbage"

    def test_disk_cache_disabled_skips_recording(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0,
                                  use_disk_cache=False)
        runner.trace("pixlr")
        assert not (tmp_path / "traces").exists()

    @pytest.mark.parametrize("use_disk_cache", [True, False])
    def test_every_config_simulates_from_the_recording(
            self, tmp_path, monkeypatch, use_disk_cache):
        """The recording run walks each event once (to record it); every
        configuration then decodes from the recording — on disk or, with
        the disk cache off, in memory — bit-identical to the live
        trace."""
        from repro.isa.tracefile import LoadedTrace
        from repro.sim.simulator import Simulator
        from repro.workloads import get_app
        from repro.workloads.generator import EventTrace

        walked = []
        materialize = EventTrace._materialize
        monkeypatch.setattr(
            EventTrace, "_materialize",
            lambda self, index: walked.append(index)
            or materialize(self, index))
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0,
                                  use_disk_cache=use_disk_cache)
        configs = [presets.nl(), presets.esp_nl(), presets.runahead_nl()]
        results = [runner.run("pixlr", config) for config in configs]
        trace = runner.trace("pixlr")
        assert isinstance(trace, LoadedTrace)
        assert sorted(walked) == list(range(len(trace)))
        monkeypatch.setattr(EventTrace, "_materialize", materialize)
        for config, result in zip(configs, results):
            live = Simulator(EventTrace(get_app("pixlr"), scale=0.25,
                                        seed=0), config).run()
            live.config = config.name
            assert result.to_dict() == live.to_dict()
