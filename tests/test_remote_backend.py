"""The remote execution backend: protocol, leases, at-most-once, degrade.

The contract pinned here:

* the length-prefixed JSON framing round-trips messages and treats torn
  frames / EOF / oversized frames as a disconnect, never as data;
* ``REPRO_BACKEND=remote`` produces results bit-identical to serial —
  through real ``repro worker`` socket workers — and writes identically
  keyed cache files;
* a worker that stops heartbeating mid-task loses its lease: the task is
  stolen, reissued to a live worker, and the batch still ends
  bit-identical, with the steal visible in metrics, the runlog and
  ``repro stats``;
* duplicate result deliveries (the ``dup_result`` fault, or a steal
  survivor finishing late) commit at most once — the duplicate is a
  counted no-op, never a second cache write;
* losing (or never having) workers degrades to the auto-picked local
  backend instead of failing the campaign;
* reconnect/retry backoff is full-jitter and deterministic in the task
  token; the auto-pick probe ceiling honours ``REPRO_PROBE_TIMEOUT``.
"""

import json
import socket
import threading
import time

import pytest

import repro.exec.auto as auto_mod
from repro.exec import RemoteBackend, auto_pick, jittered_backoff
from repro.exec.base import BACKEND_NAMES
from repro.exec.remote import (parse_addr, recv_msg, send_msg,
                               worker_main)
from repro.obs import metrics as metrics_mod
from repro.obs.runlog import iter_records
from repro.obs.stats import format_table, summarize
from repro.resilience import unwrap_result
from repro.sim import presets
from repro.sim.experiments import ExperimentRunner

APPS = ("bing", "pixlr")


def _pairs():
    return [(app, presets.by_name(name)) for name in ("baseline", "nl")
            for app in APPS]


@pytest.fixture(autouse=True)
def _own_coordinator(monkeypatch):
    """These tests stage their own worker fleets (or deliberately have
    none); an ambient ``REPRO_COORD`` — the CI remote leg exports one —
    must not hand their tasks to parked external workers."""
    monkeypatch.delenv("REPRO_COORD", raising=False)


@pytest.fixture
def recording_metrics():
    registry = metrics_mod.MetricsRegistry()
    previous = metrics_mod.set_registry(registry)
    yield registry
    metrics_mod.set_registry(previous)


@pytest.fixture
def fresh_auto_cache():
    auto_mod._choice_cache.clear()
    yield
    auto_mod._choice_cache.clear()


class _WorkerPool:
    """In-process (thread) workers attached to a backend's ``on_bound``
    hook — same protocol as ``repro worker`` subprocesses, but
    deterministic to start and guaranteed to die with the test."""

    def __init__(self, backend: RemoteBackend, specs: list[dict]) -> None:
        self.stop = threading.Event()
        self.threads: list[threading.Thread] = []

        def on_bound(addr):
            coord = f"{addr[0]}:{addr[1]}"
            for spec in specs:
                kwargs = dict(in_process=True, stop_event=self.stop)
                kwargs.update(spec)
                delay = kwargs.pop("start_delay_s", 0.0)

                def run(coord=coord, kwargs=kwargs, delay=delay):
                    if delay:
                        time.sleep(delay)
                    worker_main(coord, **kwargs)

                thread = threading.Thread(target=run, daemon=True)
                thread.start()
                self.threads.append(thread)

        backend.self_host = False
        backend.on_bound = on_bound

    def close(self) -> None:
        self.stop.set()
        for thread in self.threads:
            thread.join(timeout=5.0)


class TestFraming:
    def test_roundtrip(self):
        a, b = socket.socketpair()
        try:
            send_msg(a, {"type": "hello", "pid": 42, "nested": [1, 2]})
            assert recv_msg(b) == {"type": "hello", "pid": 42,
                                   "nested": [1, 2]}
        finally:
            a.close()
            b.close()

    def test_eof_and_torn_frames_read_as_disconnect(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00\x00\x10onlyfive")  # header promises 16
            a.close()
            assert recv_msg(b) is None  # torn frame, not an exception
            assert recv_msg(b) is None  # EOF likewise
        finally:
            b.close()

    def test_non_object_and_oversized_frames_rejected(self):
        a, b = socket.socketpair()
        try:
            send_msg(a, {"ok": 1})
            body = json.dumps([1, 2, 3]).encode()
            a.sendall(len(body).to_bytes(4, "big") + body)
            assert recv_msg(b) == {"ok": 1}
            assert recv_msg(b) is None  # a JSON array is not a message
            a2, b2 = socket.socketpair()
            try:
                a2.sendall((1 << 30).to_bytes(4, "big"))
                assert recv_msg(b2) is None  # absurd length: protocol err
            finally:
                a2.close()
                b2.close()
        finally:
            a.close()
            b.close()

    def test_parse_addr(self):
        assert parse_addr("10.0.0.2:9100") == ("10.0.0.2", 9100)
        assert parse_addr(":9100") == ("127.0.0.1", 9100)
        assert parse_addr("9100") == ("127.0.0.1", 9100)
        with pytest.raises(ValueError):
            parse_addr("")
        with pytest.raises(ValueError):
            parse_addr("host:notaport")


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


class TestRemoteParity:
    def test_remote_self_host_bit_identical_to_serial(self, tmp_path):
        """The headline: ``REPRO_BACKEND=remote`` with self-hosted
        ``repro worker`` subprocesses ends byte-identical to serial,
        with identically keyed cache files."""
        serial = ExperimentRunner(cache_dir=tmp_path / "serial",
                                  scale=0.1, seed=0, backend="serial")
        reference = [r.to_dict() for r in serial.run_many(_pairs())]
        remote = ExperimentRunner(cache_dir=tmp_path / "remote",
                                  scale=0.1, seed=0, jobs=2,
                                  backend="remote")
        got = [r.to_dict() for r in remote.run_many(_pairs())]
        assert got == reference
        assert remote.backend_name == "remote"
        assert sorted(p.name for p in (tmp_path / "serial").glob("*.json")) \
            == sorted(p.name for p in (tmp_path / "remote").glob("*.json"))

    def test_remote_results_verify_under_cache_digest_audit(self,
                                                            tmp_path):
        """Every cache file a remote batch commits carries a digest
        envelope that verifies — the at-most-once commit path writes
        through the same integrity layer as every other backend."""
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                  jobs=2, backend="remote")
        runner.run_many([("bing", presets.baseline())])
        audited = 0
        for path in tmp_path.glob("*.json"):
            _payload, verified = unwrap_result(path.read_text())
            assert verified, f"{path.name} failed its digest audit"
            audited += 1
        assert audited >= 1

    def test_auto_never_resolves_to_remote(self, fresh_auto_cache):
        """Distributing a batch over the network is an explicit choice:
        the machine-shape picker only ever returns a local backend."""
        assert auto_pick().backend in ("serial", "process")
        assert "remote" in BACKEND_NAMES


class TestLeaseStealing:
    def test_expired_lease_is_stolen_and_batch_stays_identical(
            self, tmp_path, recording_metrics):
        """A worker that takes one task, never heartbeats, and sits on
        the result far past the lease loses it: the task is reissued to
        the healthy worker, the grid ends bit-identical to serial, and
        the steal is visible in metrics, the runlog and ``repro stats``.
        """
        serial = ExperimentRunner(cache_dir=tmp_path / "serial",
                                  scale=0.1, seed=0, backend="serial")
        reference = [r.to_dict() for r in serial.run_many(_pairs())]
        log_dir = tmp_path / "logs"
        runner = ExperimentRunner(cache_dir=tmp_path / "remote",
                                  scale=0.1, seed=0, backend="remote",
                                  log_dir=log_dir)
        backend = runner._resolve_backend()
        backend.lease_s = 0.6
        backend.wait_s = 30.0
        pool = _WorkerPool(backend, [
            # the sick worker: grabs the first task, no heartbeats, and
            # stalls long enough that its lease expires mid-task
            {"heartbeats_enabled": False, "pre_result_delay_s": 5.0,
             "max_tasks": 1, "exit_on_disconnect": True},
            # the healthy worker joins a beat later so the sick one is
            # guaranteed to hold the first lease
            {"start_delay_s": 0.9, "exit_on_disconnect": True},
        ])
        try:
            got = [r.to_dict() for r in runner.run_many(_pairs())]
        finally:
            pool.close()
        assert got == reference
        counters = recording_metrics.snapshot()["counters"]
        assert counters.get("remote.steals", 0) >= 1
        assert counters.get("remote.digest_mismatch", 0) == 0
        steals = [r for r in iter_records(log_dir)
                  if r.get("kind") == "steal"]
        assert steals and steals[0]["reason"] in ("lease-expired",
                                                  "worker-left")
        summary = summarize(iter_records(log_dir))
        assert summary["remote_steals"] >= 1
        assert summary["remote_workers_joined"] >= 2
        assert "remote — workers joined:" in format_table(summary)


class TestDegradation:
    def test_no_workers_degrades_to_local_backend(self, tmp_path,
                                                  recording_metrics):
        """A coordinator nobody ever connects to gives up after its wait
        budget and finishes the batch on the auto-picked local backend —
        degraded throughput, not a failed campaign."""
        log_dir = tmp_path / "logs"
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                  backend="remote", log_dir=log_dir)
        backend = runner._resolve_backend()
        backend.self_host = False
        backend.wait_s = 0.3
        results = runner.run_many([("bing", presets.baseline())])
        assert results[0].instructions > 0
        counters = recording_metrics.snapshot()["counters"]
        assert counters.get("remote.degraded", 0) == 1
        degraded = [r for r in iter_records(log_dir)
                    if r.get("kind") == "remote-degraded"]
        assert degraded and degraded[0]["remaining"] == 1

    def test_bad_coordinator_address_degrades(self, tmp_path,
                                              recording_metrics):
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                  backend="remote")
        backend = runner._resolve_backend()
        backend.coord = "not-an-address"
        results = runner.run_many([("bing", presets.baseline())])
        assert results[0].instructions > 0
        assert recording_metrics.snapshot()["counters"].get(
            "remote.degraded", 0) == 1


class TestWorkerCli:
    def test_worker_without_coordinator_address_fails_fast(self,
                                                           monkeypatch,
                                                           capsys):
        from repro.cli import main

        monkeypatch.delenv("REPRO_COORD", raising=False)
        assert main(["worker"]) == 2
        assert "REPRO_COORD" in capsys.readouterr().err

    def test_run_coord_flag_reaches_the_environment(self, monkeypatch):
        import argparse

        from repro.cli import _apply_coord

        monkeypatch.delenv("REPRO_COORD", raising=False)
        _apply_coord(argparse.Namespace(coord="10.0.0.9:7777"))
        import os
        assert os.environ["REPRO_COORD"] == "10.0.0.9:7777"
        monkeypatch.delenv("REPRO_COORD", raising=False)


class TestProbeTimeout:
    def test_probe_ceiling_honours_env(self, monkeypatch,
                                       fresh_auto_cache):
        """A loaded CI machine that forks slowly must not misclassify as
        "slow workers => serial" when ``REPRO_PROBE_TIMEOUT`` says the
        round-trip is acceptable."""
        monkeypatch.setattr(auto_mod, "_spin_score", lambda *a, **k: 1e6)
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


class TestQuarantineWriteFailure:
    """A rejected remote payload whose forensic copy cannot land (sick
    quarantine volume) must be surfaced, never silently swallowed."""

    def _coordinator(self, tmp_path, log_dir):
        from repro.exec.remote import _Coordinator
        from repro.sim.config import SimConfig

        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.25, seed=0,
                                  log_dir=log_dir)
        todo = [("k1", "pixlr", SimConfig())]
        return _Coordinator(runner, todo, results={}, progress=None,
                            lease_s=1.0, wait_s=1.0), runner

    def test_metric_and_runlog_record_on_unwritable_quarantine(
            self, tmp_path, recording_metrics):
        coord, runner = self._coordinator(tmp_path, tmp_path / "logs")
        # a *file* where the quarantine directory should be: mkdir
        # inside _quarantine_payload raises OSError
        blocked = tmp_path / "quarantine"
        blocked.write_text("not a directory")
        assert runner.quarantine_dir == blocked
        coord._quarantine_payload("k1", {"cycles": 1}, "digest mismatch")
        counters = recording_metrics.snapshot()["counters"]
        assert counters.get("remote.quarantine_write_failed") == 1
        assert counters.get("remote.digest_mismatch") == 1
        records = [r for r in iter_records(tmp_path / "logs")
                   if r.get("kind") == "corrupt"]
        assert len(records) == 1
        assert records[0]["quarantined"] is None
        assert "OSError" in records[0]["quarantine_write_failed"] \
            or "Error" in records[0]["quarantine_write_failed"]

    def test_healthy_quarantine_writes_and_stays_silent(
            self, tmp_path, recording_metrics):
        coord, runner = self._coordinator(tmp_path, tmp_path / "logs")
        coord._quarantine_payload("k1", {"cycles": 1}, "digest mismatch")
        counters = recording_metrics.snapshot()["counters"]
        assert "remote.quarantine_write_failed" not in counters
        from pathlib import Path
        files = list(Path(runner.quarantine_dir).glob("remote-k1.*"))
        assert len(files) == 1
