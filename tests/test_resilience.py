"""Crash-safe persistence: envelopes, quarantine, manifests, fault plans
and the disk guard.

The contracts pinned here: every artifact the harness reads back from
disk is verified, verification failures quarantine (never delete) and
regenerate, corruption is visible in the run log, grid
manifests survive interruption and resume exactly, fault-injection
decisions replay deterministically from their spec, and a result-cache
write that fails degrades the cache without failing the simulation.
"""

import errno
import json
import pathlib
import warnings

import pytest

from repro.obs.runlog import iter_records
from repro.obs.stats import summarize
from repro.resilience import (FaultPlan, GridInterrupt, GridManifest,
                              IntegrityError, config_from_dict,
                              config_to_dict, payload_digest, quarantine,
                              set_fault_plan, unwrap_result, wrap_result)
from repro.sim import experiments as experiments_mod
from repro.sim import presets
from repro.sim.experiments import ExperimentRunner
from repro.sim.results import SimResult


class TestResultEnvelope:
    def test_roundtrip_verifies(self):
        result = {"app": "bing", "cycles": 123.5, "nested": {"a": [1, 2]}}
        assert unwrap_result(wrap_result(result)) == result

    def test_bare_dict_rejected(self):
        with pytest.raises(IntegrityError):
            unwrap_result(json.dumps({"app": "bing", "cycles": 1.0}))

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
        assert unwrap_result(wrap_result({"y": 2, "x": 1})) \
            == {"x": 1, "y": 2}
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
        manifest = GridManifest.start(
            tmp_path, _tasks([("bing", "d1"), ("pixlr", "d2")]),
            scale=0.5, seed=3, label="unit")
        loaded = GridManifest.load(manifest.path)
        assert loaded.grid_id == manifest.grid_id
        assert loaded.label == "unit"
        assert loaded.scale == 0.5 and loaded.seed == 3
        assert loaded.counts() == {"pending": 2}
        assert not loaded.is_complete

    def test_start_marks_cached_tasks_done(self, tmp_path):
        manifest = GridManifest.start(
            tmp_path, _tasks([("bing", "d1"), ("pixlr", "d2")]),
            scale=1.0, seed=0, done={"k-bing-d1"})
        loaded = GridManifest.load(manifest.path)
        assert loaded.tasks["k-bing-d1"]["status"] == "done"
        assert loaded.tasks["k-pixlr-d2"]["status"] == "pending"
        assert not loaded.is_complete

    def test_finish_records_failures(self, tmp_path):
        manifest = GridManifest.start(
            tmp_path, _tasks([("bing", "d1"), ("pixlr", "d2")]),
            scale=1.0, seed=0)
        manifest.finish({"k-pixlr-d2": "boom (after 3 attempts)"})
        loaded = GridManifest.load(manifest.path)
        assert loaded.counts() == {"done": 1, "failed": 1}
        assert loaded.tasks["k-pixlr-d2"]["error"] \
            == "boom (after 3 attempts)"
        assert loaded.tasks["k-bing-d1"]["error"] is None
        assert loaded.completed_at is None
        assert GridManifest.latest_incomplete(tmp_path).grid_id \
            == manifest.grid_id

    def test_restart_replaces_an_earlier_manifest(self, tmp_path):
        tasks = _tasks([("bing", "d1"), ("pixlr", "d2")])
        first = GridManifest.start(tmp_path, tasks, scale=1.0, seed=0)
        first.finish({"k-pixlr-d2": "boom"})
        again = GridManifest.start(tmp_path, tasks, scale=1.0, seed=0,
                                   done={"k-bing-d1"})
        assert again.path == first.path
        loaded = GridManifest.load(again.path)
        assert loaded.counts() == {"done": 1, "pending": 1}
        assert loaded.tasks["k-pixlr-d2"]["error"] is None
        assert list(tmp_path.glob("grid-*.json")) == [again.path]

    def test_tampered_manifest_rejected_then_recreated(self, tmp_path):
        tasks = _tasks([("bing", "d1")])
        manifest = GridManifest.start(tmp_path / "manifests",
                                      tasks, scale=1.0, seed=0)
        manifest.finish({})
        body = manifest.path.read_text().replace("done", "dead")
        manifest.path.write_text(body)
        with pytest.raises(IntegrityError):
            GridManifest.load(manifest.path)
        fresh = GridManifest.start(tmp_path / "manifests", tasks,
                                   scale=1.0, seed=0)
        # the tampered file was quarantined, not trusted or deleted
        assert fresh.tasks["k-bing-d1"]["status"] == "pending"
        assert list((tmp_path / "quarantine").glob("*.quarantined"))
        assert GridManifest.load(fresh.path).grid_id == fresh.grid_id

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
        done = GridManifest.start(
            tmp_path, _tasks([("bing", "d1")]), scale=1.0, seed=0)
        done.finish({})
        assert done.completed_at is not None
        pending = GridManifest.start(
            tmp_path, _tasks([("pixlr", "d9")]), scale=1.0, seed=0)
        found = GridManifest.latest_incomplete(tmp_path)
        assert found is not None
        assert found.grid_id == pending.grid_id
        assert GridManifest.latest_incomplete(tmp_path / "absent") is None


def _runner(tmp_path, **kwargs):
    # jobs=1 and no timeout keep every task on the in-process serial
    # path, where injected interrupts fire, whatever REPRO_JOBS or
    # REPRO_TASK_TIMEOUT say
    kwargs.setdefault("log_dir", tmp_path / "logs")
    return ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0, jobs=1,
                            task_timeout=0, **kwargs)


class TestRunnerCorruptionRecovery:
    """Corrupt cache entries are logged, quarantined and regenerated —
    and a corrupted artifact never yields a wrong result."""

    def test_corrupt_result_json_recovers(self, tmp_path):
        config = presets.baseline()
        reference = _runner(tmp_path).run("bing", config).to_dict()
        [cache_file] = tmp_path.glob("*.json")
        cache_file.write_text("{not json at all")
        result = _runner(tmp_path).run("bing", config)
        assert result.to_dict() == reference
        quarantined = list((tmp_path / "quarantine").glob("*.quarantined"))
        assert len(quarantined) == 1
        assert quarantined[0].read_text() == "{not json at all"
        corrupt_records = [r for r in iter_records(tmp_path / "logs")
                           if r["kind"] == "corrupt"]
        assert len(corrupt_records) == 1
        assert corrupt_records[0]["artifact"] == "result"
        assert corrupt_records[0]["quarantined"] == quarantined[0].name
        # the regenerated entry is valid again
        payload = unwrap_result(next(tmp_path.glob("*.json")).read_text())
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
            self, tmp_path, mutate):
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
    def test_trace_corruption_regenerates(self, tmp_path, mutate):
        config = presets.baseline()
        reference = _runner(tmp_path).run("bing", config).to_dict()
        [trace_file] = (tmp_path / "traces").glob("*.espt")
        raw = trace_file.read_bytes()
        trace_file.write_bytes(mutate(raw))
        for result_file in tmp_path.glob("*.json"):
            result_file.unlink()  # force re-simulation off the bad trace
        assert _runner(tmp_path).run("bing", config).to_dict() == reference
        summary = summarize(iter_records(tmp_path / "logs"))
        assert summary["corrupt_by_artifact"] == {"trace": 1}
        assert list((tmp_path / "quarantine").glob("*.espt.*.quarantined"))

    def test_bare_result_entry_quarantined(self, tmp_path):
        """An entry without the digest envelope under a current key is
        damage or a foreign write: quarantined, logged and re-simulated,
        never trusted."""
        config = presets.baseline()
        reference = _runner(tmp_path).run("bing", config)
        [cache_file] = tmp_path.glob("*.json")
        cache_file.write_text(json.dumps(reference.to_dict()))
        result = _runner(tmp_path).run("bing", config)
        assert result.to_dict() == reference.to_dict()
        assert len(list((tmp_path / "quarantine").glob("*.quarantined"))) \
            == 1
        summary = summarize(iter_records(tmp_path / "logs"))
        assert summary["corrupt_by_artifact"] == {"result": 1}
        assert summary["simulated"] == 2
        unwrap_result(cache_file.read_text())  # re-stored in an envelope

    def test_corrupt_manifest_logged_on_rerun(self, tmp_path):
        """A grid whose manifest fails its digest check quarantines it
        through the runner, with a ``corrupt`` record for ``repro
        stats``."""
        pairs = [("bing", presets.baseline()), ("bing", presets.nl())]
        _runner(tmp_path).run_many(pairs)
        [manifest] = (tmp_path / "manifests").glob("grid-*.json")
        manifest.write_text(manifest.read_text().replace("done", "dead"))
        # one missing result makes the re-run start a fresh manifest
        next(tmp_path.glob("*.json")).unlink()
        _runner(tmp_path).run_many(pairs)
        summary = summarize(iter_records(tmp_path / "logs"))
        assert summary["corrupt_by_artifact"]["manifest"] == 1
        assert list((tmp_path / "quarantine").glob(
            "grid-*.json.*.quarantined"))
        assert GridManifest.load(manifest).is_complete


def _six_pairs():
    return [(app, config) for config in
            (presets.baseline(), presets.nl(), presets.nl_s())
            for app in ("bing", "pixlr")]


class TestRunnerResume:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_clean_batch_writes_its_manifest_twice(self, tmp_path,
                                                   monkeypatch, jobs):
        """One write when the batch starts and one when it ends, at any
        batch size and worker count."""
        writes = []
        original_write = GridManifest._write

        def spy(self):
            writes.append(self.counts())
            original_write(self)

        monkeypatch.setattr(GridManifest, "_write", spy)
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.05, seed=0,
                                  jobs=jobs, task_timeout=0)
        runner.run_many(_six_pairs())
        assert writes == [{"pending": 6}, {"done": 6}]

    def test_resume_after_interrupt_simulates_only_the_rest(self,
                                                            tmp_path):
        """An interrupt after k finished tasks leaves the start manifest;
        the resume serves those k from the result cache and simulates
        only the rest."""
        pairs = _six_pairs()
        # at seed 5 the first interrupt fires before the fourth task
        set_fault_plan(FaultPlan({"interrupt": 0.3}, seed=5))
        first_logs = tmp_path / "first-logs"
        with pytest.raises(KeyboardInterrupt):
            _runner(tmp_path, log_dir=first_logs).run_many(pairs)
        set_fault_plan(FaultPlan())
        finished = {r["key"] for r in iter_records(first_logs)
                    if r.get("kind") == "run"}
        assert 0 < len(finished) < len(pairs)

        resume_logs = tmp_path / "resume-logs"
        manifest, results = _runner(
            tmp_path, log_dir=resume_logs).resume_grid()
        assert manifest.is_complete
        runs = {r["key"]: r["cache"] for r in iter_records(resume_logs)
                if r.get("kind") == "run"}
        assert {key for key, cache in runs.items() if cache == "disk"} \
            == finished
        assert sorted(cache for key, cache in runs.items()
                      if key not in finished) \
            == ["simulated"] * (len(pairs) - len(finished))
        reference = ExperimentRunner(
            cache_dir=tmp_path / "ref", scale=0.1, seed=0,
            jobs=1).run_many(pairs)
        assert [r.to_dict() for r in results] \
            == [r.to_dict() for r in reference]

    def test_interrupted_grid_resumes_to_identical_results(self, tmp_path):
        config = presets.baseline()
        pairs = [("bing", config), ("pixlr", config)]
        reference = [r.to_dict() for r in
                     _runner(tmp_path / "ref").run_many(pairs)]

        set_fault_plan(FaultPlan({"interrupt": 1.0}, seed=0))
        # interrupts fire on the serial completion path: _runner pins
        # jobs=1 so an ambient REPRO_JOBS can't bypass them
        runner = _runner(tmp_path)
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

    def test_resume_completes_a_grid_the_cache_caught_up_with(
            self, tmp_path):
        """The interrupted campaign's remaining tasks land in the cache
        through other batches; the resume, served wholly from the cache,
        still completes the campaign's manifest."""
        config = presets.baseline()
        pairs = [("bing", config), ("pixlr", config)]
        set_fault_plan(FaultPlan({"interrupt": 1.0}, seed=0))
        with pytest.raises(KeyboardInterrupt):
            _runner(tmp_path).run_many(pairs, label="resumable")
        set_fault_plan(FaultPlan())
        runner = _runner(tmp_path)
        for app, cfg in pairs:
            runner.run(app, cfg)
        manifest, _ = _runner(tmp_path).resume_grid()
        assert manifest.is_complete and manifest.label == "resumable"
        assert _runner(tmp_path).resume_grid() is None

    def test_cold_figures_run_leaves_one_manifest(self, tmp_path):
        """``repro figures`` runs its plan as one batch, then each figure
        re-reads its cells as an all-cached batch, which writes no
        manifest of its own."""
        from repro.sim.figures import ALL_FIGURES, plan

        names, apps = ["figure9", "figure12"], ["pixlr"]
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.05, seed=0,
                                  jobs=1)
        runner.run_many(plan(names, apps), label="figures")
        for name in names:
            ALL_FIGURES[name](runner, apps=apps)
        [path] = runner.manifest_dir.glob("grid-*.json")
        manifest = GridManifest.load(path)
        assert manifest.label == "figures" and manifest.is_complete

    def test_failed_tasks_rearm_on_resume(self, tmp_path, monkeypatch):
        import repro.sim.experiments as experiments_mod

        config = presets.baseline()
        original_simulate = ExperimentRunner._simulate

        def poisoned(self, app, cfg, **kwargs):
            raise RuntimeError("injected simulation bug")

        # the poisoned _simulate only exists in this process: _runner
        # pins jobs=1 so an ambient REPRO_JOBS can't hand the task to a
        # pool worker
        monkeypatch.setattr(ExperimentRunner, "_simulate", poisoned)
        runner = _runner(tmp_path, max_attempts=2, retry_backoff=0.0)
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
        and disk-guard floor."""
        config = presets.baseline()
        set_fault_plan(FaultPlan({"interrupt": 1.0}, seed=0))
        first = ExperimentRunner(cache_dir=tmp_path, scale=0.05, seed=0,
                                 jobs=1, task_timeout=0,
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
        runner = _runner(tmp_path, log_dir=log_dir, min_disk_mb=1)
        manifest, results = runner.resume_grid()
        assert manifest.is_complete
        assert [r.app for r in results] == ["bing"]
        (resumed,) = batch_runners
        assert resumed is not runner and resumed.scale == 0.05
        assert resumed.min_disk_mb == 1
        runs = [(r["app"], r["scale"], r["cache"])
                for r in iter_records(log_dir) if r.get("kind") == "run"]
        assert runs == [("bing", 0.05, "simulated")]


class TestDiskGuard:
    def test_volume_filling_mid_batch_degrades_the_cache(self, tmp_path,
                                                         monkeypatch):
        """The volume fills once the batch's manifest and first result
        have landed: every later temp write fails. That costs the cache,
        never a finished simulation — the batch returns every result on
        its only attempt, no temp file is left behind, the manifest on
        disk stays loadable, and the runner stops writing with one
        warning."""
        real_write_text = pathlib.Path.write_text
        cache = tmp_path / "cache"

        def filling_volume(path, data, *args, **kwargs):
            if path.name.endswith(".tmp") and cache in path.parents \
                    and list(cache.glob("*.json")):
                real_write_text(path, data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write_text(path, data, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "write_text", filling_volume)
        monkeypatch.setattr(experiments_mod, "_warned_low_disk", False)
        pairs = [("bing", presets.baseline()), ("bing", presets.nl())]
        runner = _runner(cache, max_attempts=1)
        with pytest.warns(RuntimeWarning, match="cache writes disabled"):
            results = runner.run_many(pairs)
        assert not runner.cache_writes_enabled
        assert not list(cache.rglob("*.tmp"))
        assert len(list(cache.glob("*.json"))) == 1
        [manifest_path] = (cache / "manifests").glob("grid-*.json")
        assert not GridManifest.load(manifest_path).is_complete
        reference = ExperimentRunner(
            cache_dir=tmp_path / "ref", scale=0.1, seed=0,
            jobs=1).run_many(pairs)
        assert [r.to_dict() for r in results] \
            == [r.to_dict() for r in reference]
