"""Mid-simulation checkpointing: determinism, the generational store,
and the watchdog/resource guards.

The load-bearing invariant: a run killed at *any* event boundary and
resumed from its checkpoint produces a bit-identical
:class:`~repro.sim.results.SimResult` to the uninterrupted run — per
machine configuration (baseline / ESP / runahead) and per hot-loop
implementation (packed and object paths). The checkpoint payload must
also survive a JSON round trip, since that is exactly what the on-disk
envelope does to it.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.integrity import unwrap_result, wrap_result
from repro.resilience.watchdog import (Heartbeat, MemoryPressure,
                                       WorkerWatchdog, check_memory,
                                       rss_bytes)
from repro.sim import presets
from repro.sim.config import SimConfig
from repro.sim.simulator import CHECKPOINT_VERSION, Simulator

CONFIGS = [
    ("baseline", SimConfig),
    ("esp_nl", presets.esp_nl),
    ("runahead", presets.runahead),
]


def _collect_checkpoints(app, config, kernel="packed", every=3):
    """Run once with a checkpoint sink; return (clean result dict,
    captured checkpoint payloads)."""
    states = []
    sim = Simulator(app, config, kernel=kernel)
    sim.checkpoint_every = every
    sim.checkpoint_sink = states.append
    clean = sim.run().to_dict()
    return clean, states


class TestCheckpointDeterminism:
    @pytest.mark.parametrize("kernel", ["packed", "object"],
                             ids=["packed", "object"])
    @pytest.mark.parametrize("name,make_config", CONFIGS)
    def test_resume_is_bit_identical(self, tiny_app, name, make_config,
                                     kernel):
        """Restore from every captured generation; each resumed run must
        equal the uninterrupted run bit for bit."""
        config = make_config()
        clean, states = _collect_checkpoints(tiny_app, config, kernel)
        assert len(states) >= 3, "cadence produced too few checkpoints"
        for state in states:
            # the on-disk envelope serialises the payload; prove the
            # payload survives that round trip exactly
            state = json.loads(json.dumps(state))
            fresh = Simulator(tiny_app, make_config(), kernel=kernel)
            fresh.restore(state)
            assert fresh.run().to_dict() == clean, \
                f"resume from event {state['loop']['position']} diverged"

    def test_checkpointing_does_not_perturb_the_run(self, tiny_app):
        """A run with an active sink equals a run without one."""
        plain = Simulator(tiny_app, SimConfig()).run().to_dict()
        with_sink, states = _collect_checkpoints(tiny_app, SimConfig(),
                                                 every=1)
        assert with_sink == plain
        # every interior boundary checkpointed, none at the final event
        assert [s["loop"]["position"] for s in states] \
            == list(range(1, len(states) + 1))

    def test_real_app_spot_check(self):
        """One real benchmark app through the ESP preset at small scale."""
        from repro.workloads import EventTrace, get_app

        app = get_app("bing")
        trace = EventTrace(app, scale=0.1, seed=0)
        clean, states = _collect_checkpoints(trace, presets.esp_nl(),
                                             every=1)
        assert states
        for state in states:
            fresh = Simulator(EventTrace(app, scale=0.1, seed=0),
                              presets.esp_nl())
            fresh.restore(json.loads(json.dumps(state)))
            assert fresh.run().to_dict() == clean


class TestRestoreRejection:
    def _state(self, tiny_app):
        _clean, states = _collect_checkpoints(tiny_app, SimConfig())
        return states[0]

    def test_bad_version_rejected(self, tiny_app):
        state = self._state(tiny_app)
        state["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            Simulator(tiny_app, SimConfig()).restore(state)

    def test_config_mismatch_rejected(self, tiny_app):
        state = self._state(tiny_app)
        with pytest.raises(ValueError, match="configuration"):
            Simulator(tiny_app, presets.nl()).restore(state)

    def test_esp_mismatch_rejected(self, tiny_app):
        _clean, states = _collect_checkpoints(tiny_app, presets.esp_nl())
        with pytest.raises(ValueError):
            Simulator(tiny_app, SimConfig()).restore(states[0])

    def test_trace_length_mismatch_rejected(self, tiny_app):
        state = self._state(tiny_app)
        state["n_events"] += 1
        with pytest.raises(ValueError, match="event"):
            Simulator(tiny_app, SimConfig()).restore(state)

    def test_rejection_leaves_simulator_pristine(self, tiny_app):
        """Header validation precedes mutation: a rejected restore must
        not change what the simulator then computes."""
        clean = Simulator(tiny_app, SimConfig()).run().to_dict()
        state = self._state(tiny_app)
        state["version"] = 99
        sim = Simulator(tiny_app, SimConfig())
        with pytest.raises(ValueError):
            sim.restore(state)
        assert sim.run().to_dict() == clean

    def test_checkpoint_outside_boundary_is_an_error(self, tiny_app):
        with pytest.raises(RuntimeError):
            Simulator(tiny_app, SimConfig()).checkpoint()


class TestCheckpointStore:
    def _fake_state(self, position):
        return {"loop": {"position": position}, "payload": position * 7}

    def test_save_keeps_newest_generations(self, tmp_path):
        store = CheckpointStore(tmp_path, "task")
        for position in (3, 6, 9, 12):
            assert store.save(self._fake_state(position)) is not None
        names = sorted(p.name for p in (tmp_path / "checkpoints")
                       .glob("task.e*.ckpt"))
        assert names == ["task.e00000009.ckpt", "task.e00000012.ckpt"]
        assert store.written == 4

    def test_load_latest_prefers_newest(self, tmp_path):
        store = CheckpointStore(tmp_path, "task")
        store.save(self._fake_state(3))
        store.save(self._fake_state(6))
        applied = []
        assert store.load_latest(applied.append) == 6
        assert applied[0]["payload"] == 42
        assert store.fallbacks == 0

    def test_corrupt_newest_falls_back_and_quarantines(self, tmp_path):
        store = CheckpointStore(tmp_path, "task")
        store.save(self._fake_state(3))
        newest = store.save(self._fake_state(6))
        newest.write_text(newest.read_text()[:-20])  # tear the envelope
        applied = []
        assert store.load_latest(applied.append) == 3
        assert store.fallbacks == 1
        assert applied[0]["loop"]["position"] == 3
        assert list((tmp_path / "quarantine").glob("*.quarantined"))
        assert not newest.exists()

    def test_rejected_apply_falls_back(self, tmp_path):
        """A generation whose payload the simulator refuses (ValueError)
        is quarantined just like a torn one."""
        store = CheckpointStore(tmp_path, "task")
        store.save(self._fake_state(3))
        store.save(self._fake_state(6))

        def apply(state):
            if state["loop"]["position"] == 6:
                raise ValueError("wrong configuration")

        assert store.load_latest(apply) == 3
        assert store.fallbacks == 1

    def test_no_surviving_generation_returns_none(self, tmp_path):
        store = CheckpointStore(tmp_path, "task")
        path = store.save(self._fake_state(3))
        path.write_text("garbage")
        assert store.load_latest(lambda s: None) is None
        assert store.fallbacks == 1

    def test_clear_removes_consumed_generations(self, tmp_path):
        store = CheckpointStore(tmp_path, "task")
        store.save(self._fake_state(3))
        store.save(self._fake_state(6))
        assert store.clear() == 2
        assert store.load_latest(lambda s: None) is None
        assert store.fallbacks == 0  # nothing left to even try

    def test_keys_do_not_cross_contaminate(self, tmp_path):
        a = CheckpointStore(tmp_path, "task-a")
        b = CheckpointStore(tmp_path, "task-b")
        a.save(self._fake_state(3))
        b.save(self._fake_state(9))
        assert a.load_latest(lambda s: None) == 3
        assert b.load_latest(lambda s: None) == 9

    def test_envelope_roundtrip_of_a_real_checkpoint(self, tiny_app,
                                                     tmp_path):
        """End to end: a genuine simulator payload through the store's
        wrap/unwrap envelope restores bit-identically."""
        clean, states = _collect_checkpoints(tiny_app, SimConfig())
        payload, verified = unwrap_result(wrap_result(states[-1]))
        assert verified
        fresh = Simulator(tiny_app, SimConfig())
        fresh.restore(payload)
        assert fresh.run().to_dict() == clean


class TestHeartbeat:
    def test_lifecycle(self, tmp_path):
        hb = Heartbeat(tmp_path, key="k1", app="bing", interval=0.0)
        hb.start()
        assert hb.path.exists()
        info = json.loads(hb.path.read_text())
        assert info["pid"] == os.getpid()
        assert info["parent"] == os.getppid()
        assert info["key"] == "k1" and info["app"] == "bing"
        old = time.time() - 100
        os.utime(hb.path, (old, old))
        hb.beat()
        assert hb.path.stat().st_mtime > old + 50
        hb.stop()
        assert not hb.path.exists()

    def test_beat_is_throttled(self, tmp_path):
        hb = Heartbeat(tmp_path, key="k", interval=3600.0)
        hb.start()
        old = time.time() - 100
        os.utime(hb.path, (old, old))
        hb.beat()  # inside the interval: must not touch the file
        assert hb.path.stat().st_mtime == pytest.approx(old)
        hb.stop()


class TestWorkerWatchdog:
    def _beacon(self, tmp_path, pid, parent, age):
        """A legacy beacon: no monotonic stamp in the body, so liveness
        falls back to the file mtime (aged ``age`` seconds)."""
        path = tmp_path / "heartbeats" / f"hb-{pid}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"pid": pid, "parent": parent, "key": "k", "app": "bing"}))
        stamp = time.time() - age
        os.utime(path, (stamp, stamp))
        return path

    def _mono_beacon(self, tmp_path, pid, parent, mono_age,
                     wall_age=0.0):
        """A current-format beacon whose body's monotonic stamp is
        ``mono_age`` seconds old while the file *mtime* is ``wall_age``
        seconds old — the two disagree exactly when the wall clock has
        stepped (NTP) between beats."""
        path = tmp_path / "heartbeats" / f"hb-{pid}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"pid": pid, "parent": parent, "key": "k", "app": "bing",
             "beat_mono": time.monotonic() - mono_age}))
        stamp = time.time() - wall_age
        os.utime(path, (stamp, stamp))
        return path

    def test_kills_own_stale_worker(self, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            path = self._beacon(tmp_path, proc.pid, os.getpid(), age=10.0)
            stalls = []
            dog = WorkerWatchdog(tmp_path, timeout=2.0,
                                 on_stall=stalls.append)
            assert dog.sweep() == 1
            assert dog.kills == 1
            assert not path.exists()
            assert stalls[0]["pid"] == proc.pid
            assert stalls[0]["key"] == "k"
            assert stalls[0]["age"] > 2.0
            assert proc.wait(timeout=10) != 0
        finally:
            proc.kill()

    def test_fresh_beacon_left_alone(self, tmp_path):
        path = self._beacon(tmp_path, os.getpid(), os.getpid(), age=0.0)
        dog = WorkerWatchdog(tmp_path, timeout=30.0)
        assert dog.sweep() == 0
        assert path.exists()

    def test_dead_pid_swept_without_counting_a_kill(self, tmp_path):
        # spawn-and-reap guarantees a pid that no longer exists
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        path = self._beacon(tmp_path, proc.pid, os.getpid(), age=10.0)
        dog = WorkerWatchdog(tmp_path, timeout=2.0)
        assert dog.sweep() == 0
        assert dog.kills == 0
        assert not path.exists()

    def test_foreign_beacon_untouched_until_ancient(self, tmp_path):
        foreign = self._beacon(tmp_path, 1, os.getpid() + 12345, age=10.0)
        dog = WorkerWatchdog(tmp_path, timeout=2.0)
        assert dog.sweep() == 0
        assert foreign.exists()  # someone else's campaign
        stamp = time.time() - 3600
        os.utime(foreign, (stamp, stamp))
        assert dog.sweep() == 0
        assert not foreign.exists()  # ancient orphan: swept, never killed

    def test_wall_clock_jump_spares_live_worker(self, tmp_path):
        """An NTP step makes the beacon's mtime look an hour stale while
        the worker is beating normally (fresh monotonic stamp): the
        watchdog judges monotonic-against-monotonic and must not kill."""
        proc = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            path = self._mono_beacon(tmp_path, proc.pid, os.getpid(),
                                     mono_age=0.0, wall_age=3600.0)
            dog = WorkerWatchdog(tmp_path, timeout=2.0)
            assert dog.sweep() == 0
            assert dog.kills == 0
            assert path.exists()  # the healthy worker keeps its beacon
            assert proc.poll() is None  # and its life
        finally:
            proc.kill()

    def test_stale_monotonic_stamp_kills_despite_fresh_mtime(
            self, tmp_path):
        """The converse jump: a wall clock stepped *backwards* keeps the
        mtime looking fresh forever, but the body's monotonic stamp says
        the worker stopped beating long ago — it must still be killed."""
        proc = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            path = self._mono_beacon(tmp_path, proc.pid, os.getpid(),
                                     mono_age=100.0, wall_age=0.0)
            stalls = []
            dog = WorkerWatchdog(tmp_path, timeout=2.0,
                                 on_stall=stalls.append)
            assert dog.sweep() == 1
            assert not path.exists()
            assert stalls[0]["pid"] == proc.pid
            assert stalls[0]["age"] > 2.0
            assert proc.wait(timeout=10) != 0
        finally:
            proc.kill()

    def test_corrupt_foreign_body_swept_only_when_ancient(self, tmp_path):
        """A beacon body that doesn't parse can't be one of ours (our
        writes are atomic): it is treated as foreign — untouched while
        recent, swept without a kill once ancient on the wall scale."""
        path = tmp_path / "heartbeats" / "hb-99999.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"pid": 99999, "parent"')  # torn write
        dog = WorkerWatchdog(tmp_path, timeout=2.0)
        assert dog.sweep() == 0
        assert path.exists()
        stamp = time.time() - 3600
        os.utime(path, (stamp, stamp))
        assert dog.sweep() == 0
        assert dog.kills == 0
        assert not path.exists()

    def test_thread_start_stop(self, tmp_path):
        dog = WorkerWatchdog(tmp_path, timeout=0.2)
        dog.start()
        time.sleep(0.1)
        dog.stop()
        assert dog._thread is None


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
