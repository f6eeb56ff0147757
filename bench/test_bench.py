"""Tests of the benchmark itself: ``python -m pytest bench -q``."""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from compare import verdict
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    """Time advances only when told to, or by ``tick`` on every read."""

    def __init__(self, tick: float = 0.0) -> None:
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now


@pytest.fixture
def fakepkg(tmp_path, monkeypatch):
    """A package whose functions advance the clock stored in ``CLOCK``:
    ``outer`` works 1 + 2 around a call to ``inner`` (3); ``user`` calls
    ``inner`` through a ``from … import`` alias."""
    package = tmp_path / "fakepkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "layers.py").write_text(textwrap.dedent("""
        CLOCK = None

        def inner():
            CLOCK.now += 3

        def outer():
            CLOCK.now += 1
            inner()
            CLOCK.now += 2

        class Thing:
            def work(self):
                CLOCK.now += 5

            @classmethod
            def make(cls):
                CLOCK.now += 7
                return cls()
    """))
    (package / "user.py").write_text(textwrap.dedent("""
        from fakepkg.layers import inner as alias

        def call_alias():
            alias()
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    layers = importlib.import_module("fakepkg.layers")
    user = importlib.import_module("fakepkg.user")
    yield layers, user
    for name in [name for name in sys.modules if name.startswith("fakepkg")]:
        del sys.modules[name]


def _tracer(layers, clock, **spans) -> Tracer:
    layers.CLOCK = clock
    return Tracer({name: tuple(f"fakepkg.{target}" for target in targets)
                   for name, targets in spans.items()},
                  clock=clock, packages=("fakepkg",))


def test_nested_self_and_total_time(fakepkg):
    layers, _ = fakepkg
    clock = FakeClock()
    tracer = _tracer(layers, clock, outer=["layers:outer"],
                     inner=["layers:inner"])
    tracer.install()
    layers.outer()
    layers.outer()
    clock.now += 4  # untraced work between spans
    tracer.uninstall()
    report = tracer.report()
    assert report["outer.self_s"] == 6
    assert report["outer.total_s"] == 12
    assert report["outer.calls"] == 2
    assert report["inner.self_s"] == report["inner.total_s"] == 6
    assert report["other.self_s"] == 4
    assert report["trace.overhead_s"] == 0


def test_calibrated_cost_is_subtracted(fakepkg):
    # every clock read costs one tick: a wrapped call spends one tick
    # inside its own interval (the closing read) and one outside (the
    # opening read), which calibration must find and report must remove
    layers, _ = fakepkg
    clock = FakeClock(tick=1.0)
    tracer = _tracer(layers, clock, outer=["layers:outer"],
                     inner=["layers:inner"])
    tracer.calibrate(calls=1000, repeats=3)
    assert tracer.cost_inside == pytest.approx(1.0, abs=0.01)
    assert tracer.cost_outside == pytest.approx(1.0, abs=0.01)
    tracer.cost_inside = tracer.cost_outside = 1.0
    tracer.install()
    layers.outer()
    tracer.uninstall()
    report = tracer.report()
    assert report["outer.self_s"] == 3
    assert report["outer.total_s"] == 6
    assert report["inner.self_s"] == report["inner.total_s"] == 3
    assert report["trace.overhead_s"] == 4
    # what remains outside the spans is the closing read of the tracer
    assert report["other.self_s"] == 1


def test_aliases_and_methods_are_patched_and_restored(fakepkg):
    layers, user = fakepkg
    originals = (layers.inner, user.alias, layers.Thing.__dict__["work"],
                 layers.Thing.__dict__["make"])
    tracer = _tracer(layers, FakeClock(), inner=["layers:inner"],
                     thing=["layers:Thing.work", "layers:Thing.make"])
    tracer.install()
    assert user.alias is not originals[1]
    user.call_alias()
    thing = layers.Thing.make()
    thing.work()
    tracer.uninstall()
    report = tracer.report()
    assert report["inner.calls"] == 1
    assert report["inner.self_s"] == 3
    assert report["thing.calls"] == 2
    assert report["thing.self_s"] == 12
    assert (layers.inner, user.alias, layers.Thing.__dict__["work"],
            layers.Thing.__dict__["make"]) == originals
    assert isinstance(layers.Thing.__dict__["make"], classmethod)


def test_missing_target_reports_zero_calls(fakepkg):
    layers, _ = fakepkg
    tracer = _tracer(layers, FakeClock(), gone=["layers:removed",
                                                "layers:Gone.method",
                                                "nosuchmodule:f"])
    tracer.install()
    layers.outer()
    tracer.uninstall()
    report = tracer.report()
    assert report["gone.calls"] == 0
    assert report["gone.self_s"] == 0


def test_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [value * 1.3 for value in parent]
    slower = [value * 0.8 for value in parent]
    assert verdict("minstr_per_s", parent, faster, "higher", 0.1)[0] \
        == "improved"
    assert verdict("minstr_per_s", parent, slower, "higher", 0.1)[0] \
        == "regressed"
    assert verdict("minstr_per_s", parent, parent, "higher", 0.1)[0] \
        == "no change"
    noisy = [5.0, 15.0] * 5
    assert verdict("minstr_per_s", noisy, noisy[::-1], "higher", 0.1)[0] \
        == "unresolved"
    assert verdict("sim.run.calls", [3, 4], [3, 4], "lower", None)[0] \
        == "match"
    assert verdict("sim.run.calls", [3, 4], [3, 5], "lower", None)[0] \
        == "MISMATCH"


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(trace):
    proc = _run("--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    metrics = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for workload in SPEC["workloads"]:
        for metric in metrics:
            key = f"{workload['name']}/{metric['name']}"
            assert result["metrics"][key]["unit"] == metric["unit"], key
            assert any(line.split()[:1] == [metric["name"]]
                       and metric["unit"] in line.split()
                       for line in lines), metric["name"]
    if not trace:
        failed = [line.split() for line in lines
                  if line.split()[:1] == ["failed_frac"]]
        assert failed and all(float(words[1]) == 0 for words in failed)


def test_corrupt_reference_fails_the_run(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    path = tmp_path / "bench" / "reference" / "simulate-api.json"
    reference = json.loads(path.read_text())
    reference["seeds"]["0"]["pixlr"]["nl"] = "0" * 16
    path.write_text(json.dumps(reference))
    proc = _run("--smoke", "--workload", "simulate-api", cwd=tmp_path)
    assert proc.returncode == 1
    assert "pixlr/nl: digest" in proc.stdout
    assert json.loads(proc.stdout.strip().splitlines()[-1])["failed"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "simulate-api", "--seed", "0", "--seconds",
                "10", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
