"""Crash-safe persistence: envelopes, quarantine, manifests, fault plans
and the worker memory guard.

The contracts pinned here: every artifact the harness reads back from
disk is verified, verification failures quarantine (never delete) and
regenerate, corruption is visible in metrics and the run log, grid
manifests survive interruption and resume exactly, fault-injection
decisions replay deterministically from their spec, and a worker over its
RSS ceiling raises :class:`~repro.resilience.MemoryPressure`.
"""

import json
import warnings

import pytest

from repro.obs import metrics as metrics_mod
from repro.obs.runlog import iter_records
from repro.resilience import (FaultPlan, GridInterrupt, GridManifest,
                              IntegrityError, MemoryPressure, check_memory,
                              config_from_dict, config_to_dict,
                              payload_digest, quarantine, rss_bytes,
                              set_fault_plan, unwrap_result, wrap_result)
from repro.sim import presets
from repro.sim.experiments import ExperimentRunner
from repro.sim.results import SimResult


class TestResultEnvelope:
    def test_roundtrip_verifies(self):
        result = {"app": "bing", "cycles": 123.5, "nested": {"a": [1, 2]}}
        payload, verified = unwrap_result(wrap_result(result))
        assert payload == result
        assert verified

    def test_legacy_bare_dict_loads_unverified(self):
        legacy = {"app": "bing", "cycles": 1.0}
        payload, verified = unwrap_result(json.dumps(legacy))
        assert payload == legacy
        assert not verified

    def test_tampered_body_detected(self):
        text = wrap_result({"cycles": 100})
        tampered = text.replace("100", "999")
        with pytest.raises(IntegrityError):
            unwrap_result(tampered)

    def test_tampered_digest_detected(self):
        envelope = json.loads(wrap_result({"cycles": 100}))
        envelope["digest"] = "0" * len(envelope["digest"])
        with pytest.raises(IntegrityError):
            unwrap_result(json.dumps(envelope))

    def test_torn_text_raises(self):
        text = wrap_result({"cycles": 100})
        with pytest.raises(ValueError):
            unwrap_result(text[: len(text) // 2])

    def test_non_object_rejected(self):
        with pytest.raises(IntegrityError):
            unwrap_result("[1, 2, 3]")

    def test_digest_is_key_order_independent(self):
        a = payload_digest(json.dumps({"x": 1, "y": 2}, sort_keys=True,
                                      separators=(",", ":")))
        _, verified = unwrap_result(wrap_result({"y": 2, "x": 1}))
        assert verified
        assert len(a) == 16


class TestQuarantine:
    def test_moves_file_keeping_content(self, tmp_path):
        victim = tmp_path / "bad.json"
        victim.write_text("garbage")
        dest = quarantine(victim, tmp_path / "quarantine")
        assert dest is not None
        assert not victim.exists()
        assert dest.read_text() == "garbage"
        assert dest.name.startswith("bad.json.")
        assert dest.name.endswith(".quarantined")

    def test_repeated_same_name_never_collides(self, tmp_path):
        names = set()
        for _ in range(3):
            victim = tmp_path / "bad.json"
            victim.write_text("garbage")
            dest = quarantine(victim, tmp_path / "quarantine")
            names.add(dest.name)
        assert len(names) == 3

    def test_unwritable_destination_returns_none(self, tmp_path):
        victim = tmp_path / "bad.json"
        victim.write_text("garbage")
        blocker = tmp_path / "blocker"
        blocker.write_text("")  # a *file* where the directory must go
        assert quarantine(victim, blocker / "quarantine") is None
        assert victim.exists()  # caller regenerates over it in place


class TestFaultPlan:
    def test_spec_parsing(self):
        plan = FaultPlan.from_spec(
            "corrupt_trace:0.25, kill_worker:0.5 ,seed:9")
        assert plan.rates == {"corrupt_trace": 0.25, "kill_worker": 0.5}
        assert plan.seed == 9
        assert plan.active

    def test_empty_and_zero_rate_specs_inactive(self):
        assert not FaultPlan.from_spec(None).active
        assert not FaultPlan.from_spec("").active
        assert not FaultPlan.from_spec("kill_worker:0").active

    def test_rates_clamped_to_unit_interval(self):
        plan = FaultPlan({"torn_write": 7.0, "kill_worker": -1.0})
        assert plan.rates == {"torn_write": 1.0, "kill_worker": 0.0}

    def test_malformed_part_warns_once_and_is_skipped(self):
        import repro.resilience.faults as faults_mod

        faults_mod._warned_parts.clear()
        with pytest.warns(RuntimeWarning, match="REPRO_FAULTS"):
            plan = FaultPlan.from_spec("kill_worker:lots,torn_write:0.5")
        assert plan.rates == {"torn_write": 0.5}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            FaultPlan.from_spec("kill_worker:lots")  # already warned

    def test_decisions_replay_deterministically(self):
        draws_a = [FaultPlan({"kill_worker": 0.5}, seed=3)
                   .fires("kill_worker", f"t{i}") for i in range(64)]
        draws_b = [FaultPlan({"kill_worker": 0.5}, seed=3)
                   .fires("kill_worker", f"t{i}") for i in range(64)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)

    def test_repeated_draws_for_one_token_are_fresh(self):
        plan = FaultPlan({"kill_worker": 0.5}, seed=1)
        sequence = [plan.fires("kill_worker", "same") for _ in range(64)]
        replay = FaultPlan({"kill_worker": 0.5}, seed=1)
        assert sequence == [replay.fires("kill_worker", "same")
                            for _ in range(64)]
        assert any(sequence) and not all(sequence)

    def test_corrupt_file_flips_exactly_one_byte(self, tmp_path):
        path = tmp_path / "trace.espt"
        original = bytes(range(256)) * 4
        path.write_bytes(original)
        plan = FaultPlan({"corrupt_trace": 1.0}, seed=0)
        assert plan.corrupt_file(path, "tok")
        corrupt = path.read_bytes()
        assert len(corrupt) == len(original)
        diffs = [i for i, (a, b) in enumerate(zip(original, corrupt))
                 if a != b]
        assert len(diffs) == 1

    def test_torn_truncates_payload(self):
        plan = FaultPlan({"torn_write": 1.0}, seed=0)
        payload = "x" * 1000
        torn = plan.torn(payload, "tok")
        assert torn is not None
        assert len(torn) < len(payload)

    def test_interrupt_raises_grid_interrupt(self):
        plan = FaultPlan({"interrupt": 1.0}, seed=0)
        with pytest.raises(GridInterrupt):
            plan.maybe_interrupt("grid:task")
        assert issubclass(GridInterrupt, KeyboardInterrupt)

    def test_fires_counts_metrics(self):
        previous = metrics_mod.set_registry(metrics_mod.MetricsRegistry())
        try:
            plan = FaultPlan({"torn_write": 1.0}, seed=0)
            plan.fires("torn_write", "tok")
            counters = metrics_mod.get_registry().snapshot()["counters"]
            assert counters["faults.torn_write"] == 1
        finally:
            metrics_mod.set_registry(previous)


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", sorted(presets.preset_names()))
    def test_every_preset_preserves_cache_key(self, name):
        config = presets.by_name(name)
        rebuilt = config_from_dict(
            json.loads(json.dumps(config_to_dict(config))))
        assert rebuilt.cache_key() == config.cache_key()
        assert rebuilt.name == config.name


def _tasks(entries):
    return [{"key": f"k-{app}-{digest}", "app": app, "config_name": "cfg",
             "config_digest": digest, "config": {"fake": True}}
            for app, digest in entries]


class TestGridManifest:
    def test_save_load_roundtrip(self, tmp_path):
        manifest = GridManifest.create_or_load(
            tmp_path, _tasks([("bing", "d1"), ("pixlr", "d2")]),
            scale=0.5, seed=3, label="unit")
        loaded = GridManifest.load(manifest.path)
        assert loaded.grid_id == manifest.grid_id
        assert loaded.label == "unit"
        assert loaded.scale == 0.5 and loaded.seed == 3
        assert loaded.counts() == {"pending": 2}
        assert not loaded.is_complete

    def test_statuses_survive_reload_merge(self, tmp_path):
        tasks = _tasks([("bing", "d1"), ("pixlr", "d2")])
        manifest = GridManifest.create_or_load(tmp_path, tasks,
                                               scale=1.0, seed=0)
        manifest.mark("k-bing-d1", "done")
        manifest.mark("k-pixlr-d2", "failed", error="boom")
        again = GridManifest.create_or_load(tmp_path, tasks,
                                            scale=1.0, seed=0)
        assert again.path == manifest.path
        assert again.tasks["k-bing-d1"]["status"] == "done"
        assert again.tasks["k-pixlr-d2"]["status"] == "failed"
        assert again.tasks["k-pixlr-d2"]["error"] == "boom"

    def test_tampered_manifest_rejected_then_recreated(self, tmp_path):
        tasks = _tasks([("bing", "d1")])
        manifest = GridManifest.create_or_load(tmp_path / "manifests",
                                               tasks, scale=1.0, seed=0)
        manifest.mark("k-bing-d1", "done")
        body = manifest.path.read_text().replace("done", "dead")
        manifest.path.write_text(body)
        with pytest.raises(IntegrityError):
            GridManifest.load(manifest.path)
        fresh = GridManifest.create_or_load(tmp_path / "manifests", tasks,
                                            scale=1.0, seed=0)
        # the tampered file was quarantined, not trusted: statuses reset
        assert fresh.tasks["k-bing-d1"]["status"] == "pending"
        assert list((tmp_path / "quarantine").glob("*.quarantined"))

    def test_grid_identity_order_independent_but_keyed(self):
        a = GridManifest.grid_identity([("bing", "d1"), ("pixlr", "d2")],
                                       1.0, 0)
        b = GridManifest.grid_identity([("pixlr", "d2"), ("bing", "d1")],
                                       1.0, 0)
        assert a == b
        assert a != GridManifest.grid_identity(
            [("bing", "d1"), ("pixlr", "d2")], 0.5, 0)
        assert a != GridManifest.grid_identity(
            [("bing", "d1"), ("pixlr", "d2")], 1.0, 7)

    def test_latest_incomplete_skips_finished_grids(self, tmp_path):
        done = GridManifest.create_or_load(
            tmp_path, _tasks([("bing", "d1")]), scale=1.0, seed=0)
        done.mark("k-bing-d1", "done")
        done.finish()
        assert done.completed_at is not None
        pending = GridManifest.create_or_load(
            tmp_path, _tasks([("pixlr", "d9")]), scale=1.0, seed=0)
        found = GridManifest.latest_incomplete(tmp_path)
        assert found is not None
        assert found.grid_id == pending.grid_id
        assert GridManifest.latest_incomplete(tmp_path / "absent") is None

    def test_reset_failed_rearms_attempt_budget(self, tmp_path):
        manifest = GridManifest.create_or_load(
            tmp_path, _tasks([("bing", "d1"), ("pixlr", "d2")]),
            scale=1.0, seed=0)
        manifest.record_attempts(["k-bing-d1"] * 3)
        manifest.mark("k-bing-d1", "failed", error="timeout")
        assert manifest.reset_failed() == 1
        task = GridManifest.load(manifest.path).tasks["k-bing-d1"]
        assert task["status"] == "pending"
        assert task["attempts"] == 0
        assert task["error"] is None


@pytest.fixture
def recording_metrics():
    registry = metrics_mod.MetricsRegistry()
    previous = metrics_mod.set_registry(registry)
    yield registry
    metrics_mod.set_registry(previous)


def _runner(tmp_path, **kwargs):
    kwargs.setdefault("log_dir", tmp_path / "logs")
    return ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0, jobs=1,
                            **kwargs)


class TestRunnerCorruptionRecovery:
    """Satellites: corrupt cache entries are metered, logged, quarantined
    and regenerated — and a corrupted artifact never yields a wrong
    result."""

    def test_corrupt_result_json_recovers(self, tmp_path,
                                          recording_metrics):
        config = presets.baseline()
        reference = _runner(tmp_path).run("bing", config).to_dict()
        [cache_file] = tmp_path.glob("*.json")
        cache_file.write_text("{not json at all")
        result = _runner(tmp_path).run("bing", config)
        assert result.to_dict() == reference
        counters = recording_metrics.snapshot()["counters"]
        assert counters["cache.corrupt"] >= 1
        assert counters["cache.result.corrupt"] == 1
        quarantined = list((tmp_path / "quarantine").glob("*.quarantined"))
        assert len(quarantined) == 1
        assert quarantined[0].read_text() == "{not json at all"
        corrupt_records = [r for r in iter_records(tmp_path / "logs")
                           if r["kind"] == "corrupt"]
        assert len(corrupt_records) == 1
        assert corrupt_records[0]["artifact"] == "result"
        assert corrupt_records[0]["quarantined"] == quarantined[0].name
        # the regenerated entry is valid again
        payload, verified = unwrap_result(
            next(tmp_path.glob("*.json")).read_text())
        assert verified
        assert SimResult.from_dict(payload).to_dict() == reference

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda raw: b"", id="zero-length"),
        pytest.param(lambda raw: raw[: len(raw) // 2], id="torn-half"),
        pytest.param(lambda raw: raw[: len(raw) - 1], id="torn-tail"),
        pytest.param(lambda raw: b"\x00" + raw[1:], id="flip-first"),
        pytest.param(
            lambda raw: raw[: len(raw) // 2]
            + bytes([raw[len(raw) // 2] ^ 0x20])
            + raw[len(raw) // 2 + 1:], id="flip-middle"),
        pytest.param(lambda raw: raw[:-2] + bytes([raw[-2] ^ 1]) + raw[-1:],
                     id="flip-tail"),
    ])
    def test_result_corruption_never_yields_wrong_result(
            self, tmp_path, recording_metrics, mutate):
        config = presets.baseline()
        reference = _runner(tmp_path).run("bing", config).to_dict()
        [cache_file] = tmp_path.glob("*.json")
        raw = cache_file.read_bytes()
        cache_file.write_bytes(mutate(raw))
        result = _runner(tmp_path).run("bing", config)
        assert result.to_dict() == reference

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda raw: b"", id="zero-length"),
        pytest.param(lambda raw: raw[: len(raw) // 3], id="truncated"),
        pytest.param(lambda raw: raw[:64] + bytes([raw[64] ^ 0x10])
                     + raw[65:], id="flip-body"),
        pytest.param(lambda raw: raw[:-1] + bytes([raw[-1] ^ 0x01]),
                     id="flip-crc"),
    ])
    def test_trace_corruption_regenerates(self, tmp_path,
                                          recording_metrics, mutate):
        config = presets.baseline()
        reference = _runner(tmp_path).run("bing", config).to_dict()
        [trace_file] = (tmp_path / "traces").glob("*.espt")
        raw = trace_file.read_bytes()
        trace_file.write_bytes(mutate(raw))
        for result_file in tmp_path.glob("*.json"):
            result_file.unlink()  # force re-simulation off the bad trace
        assert _runner(tmp_path).run("bing", config).to_dict() == reference
        counters = recording_metrics.snapshot()["counters"]
        assert counters["cache.trace.corrupt"] >= 1
        assert counters["cache.corrupt"] >= 1
        assert list((tmp_path / "quarantine").glob("*.espt.*.quarantined"))

    def test_legacy_bare_result_entry_still_loads(self, tmp_path):
        config = presets.baseline()
        reference = _runner(tmp_path).run("bing", config)
        [cache_file] = tmp_path.glob("*.json")
        # rewrite the entry as the pre-envelope layout (a bare dict)
        cache_file.write_text(json.dumps(reference.to_dict()))
        result = _runner(tmp_path).run("bing", config)
        assert result.to_dict() == reference.to_dict()
        assert not (tmp_path / "quarantine").exists()


class TestRunnerResume:
    def test_interrupted_grid_resumes_to_identical_results(self, tmp_path):
        config = presets.baseline()
        pairs = [("bing", config), ("pixlr", config)]
        reference = [r.to_dict() for r in
                     _runner(tmp_path / "ref").run_many(pairs)]

        set_fault_plan(FaultPlan({"interrupt": 1.0}, seed=0))
        # interrupts fire on the serial completion path: pin the backend
        # so an ambient REPRO_BACKEND can't bypass them
        runner = _runner(tmp_path, backend="serial")
        with pytest.raises(KeyboardInterrupt):
            runner.run_many(pairs, label="resumable")
        set_fault_plan(FaultPlan())  # clear the injected interrupts

        manifest = GridManifest.latest_incomplete(runner.manifest_dir)
        assert manifest is not None
        assert manifest.label == "resumable"
        resumed = _runner(tmp_path).resume_grid()
        assert resumed is not None
        final_manifest, results = resumed
        assert final_manifest.is_complete
        assert [r.to_dict() for r in results] == reference
        assert _runner(tmp_path).resume_grid() is None  # nothing pending

    def test_failed_tasks_rearm_on_resume(self, tmp_path, monkeypatch):
        import repro.sim.experiments as experiments_mod

        config = presets.baseline()
        original_simulate = ExperimentRunner._simulate

        def poisoned(self, app, cfg, **kwargs):
            raise RuntimeError("injected simulation bug")

        # the poisoned _simulate only exists in this process: pin the
        # backend so an ambient REPRO_BACKEND=process can't hand the
        # task to an unpatched worker
        monkeypatch.setattr(ExperimentRunner, "_simulate", poisoned)
        runner = _runner(tmp_path, max_attempts=2, retry_backoff=0.0,
                         backend="serial")
        with pytest.raises(experiments_mod.GridTaskError) as info:
            runner.run_many([("bing", config)])
        assert "injected simulation bug" in str(info.value)
        monkeypatch.setattr(ExperimentRunner, "_simulate",
                            original_simulate)
        resumed = _runner(tmp_path).resume_grid()
        assert resumed is not None
        manifest, results = resumed
        assert manifest.is_complete
        assert results[0].app == "bing"

    def test_cross_scale_resume_keeps_runner_settings(self, tmp_path,
                                                      monkeypatch):
        """A campaign recorded at another scale resumes through a runner
        rebuilt at that scale, which keeps this runner's log directory
        and resource guards."""
        config = presets.baseline()
        set_fault_plan(FaultPlan({"interrupt": 1.0}, seed=0))
        first = ExperimentRunner(cache_dir=tmp_path, scale=0.05, seed=0,
                                 jobs=1, backend="serial",
                                 log_dir=tmp_path / "first-logs")
        with pytest.raises(KeyboardInterrupt):
            first.run_many([("bing", config)], label="small")
        set_fault_plan(FaultPlan())

        batch_runners = []
        original_run_many = ExperimentRunner.run_many

        def spy(self, pairs, label=None):
            batch_runners.append(self)
            return original_run_many(self, pairs, label)

        monkeypatch.setattr(ExperimentRunner, "run_many", spy)
        log_dir = tmp_path / "resume-logs"
        runner = _runner(tmp_path, log_dir=log_dir, mem_limit_mb=777,
                         min_disk_mb=1, backend="serial")
        manifest, results = runner.resume_grid()
        assert manifest.is_complete
        assert [r.app for r in results] == ["bing"]
        (resumed,) = batch_runners
        assert resumed is not runner and resumed.scale == 0.05
        assert (resumed.mem_limit_mb, resumed.min_disk_mb) == (777, 1)
        runs = [(r["app"], r["scale"], r["cache"])
                for r in iter_records(log_dir) if r.get("kind") == "run"]
        assert runs == [("bing", 0.05, "simulated")]


class TestMemoryGuard:
    def test_zero_limit_is_a_noop(self):
        check_memory(0)

    def test_tiny_limit_raises_memory_pressure(self):
        if rss_bytes() is None:
            pytest.skip("no resource module on this platform")
        with pytest.raises(MemoryPressure):
            check_memory(1)

    def test_memory_pressure_is_a_memory_error(self):
        assert issubclass(MemoryPressure, MemoryError)
