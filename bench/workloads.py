"""One benchmark sample: set up a workload, time it, and report what it did.

``bench/run.py`` starts this script in a fresh interpreter for every
sample, with ``src`` on ``PYTHONPATH`` and every ``REPRO_*`` variable
removed::

    python3 bench/workloads.py --workload figures-cold --seed 0 \\
        --apps bing,pixlr --trace 0 --workdir DIR --spawned-at T

The last line of standard output is one JSON object: set-up and timed
seconds, peak RSS, bytes the timed part added to the cache, a digest of
every simulation result, the premise guards and, with ``--trace 1``, the
layer spans and the "why" counters. ``--setup-only`` stops where the
timed part would start and reports only ``setup_s``. ``--inputs`` prints the
number of instructions one simulation of each app retires (every event,
warm-up included), which ``run.py --write-reference`` records.

Only stable entry points are called: ``ExperimentRunner``, the
``repro.sim.figures`` functions, ``Simulator``, ``repro.simulate``,
``EventTrace`` and the presets. No kernel or backend is pinned.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import SPANS, Tracer

#: every workload runs the paper's default trace length
SCALE = 1.0

#: workload -> (figure functions or None, presets whose results are digested)
WORKLOADS: dict[str, tuple[tuple[str, ...] | None, tuple[str, ...]]] = {
    "figures-cold": (("figure9", "headline", "figure14"),
                     ("baseline", "nl", "nl_s", "runahead", "runahead_nl",
                      "esp", "esp_nl")),
    "figures-recorded": (("figure10",),
                         ("baseline", "naive_esp", "naive_esp_nl",
                          "esp_i_nl", "esp_ib_nl", "esp_ibd_nl")),
    "esp-resident": (None, ("esp_nl", "esp", "naive_esp_nl", "esp_i_nl",
                            "runahead_nl")),
    "simulate-api": (None, ("baseline", "nl", "nl_s", "efetch", "pif")),
}

#: SimResult fields left out of digests: labels, and the sampling-plane
#: fields that are not counters of a full-detail run
_NOT_DIGESTED = ("app", "config", "fidelity", "sampled_events",
                 "detailed_events", "error_bounds")


def digest(result) -> str:
    """16-hex digest of every counter of a ``SimResult``, its ``EspStats``
    and its ``EnergyBreakdown`` (floats by their exact ``repr``)."""
    fields = {key: value for key, value in result.to_dict().items()
              if key not in _NOT_DIGESTED}
    text = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def why_counters(results: dict) -> dict[str, float]:
    """Model counters that explain the layer times, pooled over every
    simulation of the pass: ``(app, preset) -> (SimResult, SimConfig)``."""
    runs = list(results.values())
    esp_runs = [run for run in runs if run[1].esp.enabled]

    def total(attr, subset=runs):
        return sum(getattr(result, attr) for result, _ in subset)

    def esp_total(attr, subset=runs):
        return sum(getattr(result.esp, attr) for result, _ in subset)

    def ratio(num, den):
        return num / den if den else 0.0

    entries = esp_total("mode_entries")
    cachelet = esp_total("i_cachelet_accesses")
    return {
        "esp.mode_entries": entries,
        "esp.pre_instructions_per_entry": ratio(
            sum(result.esp.total_pre_instructions for result, _ in runs),
            entries),
        "esp.hinted_event_frac": ratio(esp_total("hinted_events", esp_runs),
                                       total("events", esp_runs)),
        "esp.i_cachelet_hit_frac": ratio(
            cachelet - esp_total("i_cachelet_misses"), cachelet),
        "prefetch.i_useful_frac": ratio(total("prefetches_useful_i"),
                                        total("prefetches_issued_i")),
        "prefetch.d_useful_frac": ratio(total("prefetches_useful_d"),
                                        total("prefetches_issued_d")),
        "memory.l1i_mpki": 1000.0 * ratio(total("l1i_misses"),
                                          total("instructions")),
        "memory.l1d_miss_frac": ratio(total("l1d_misses"),
                                      total("l1d_accesses")),
        "branch.mispredict_frac": ratio(total("branch_mispredicts"),
                                        total("branches")),
    }


class ResidentTrace:
    """An ``EventTrace`` whose events, once materialised, stay resident.

    It offers the trace interface the simulator uses and counts in
    :attr:`misses` every event it had to fetch from the underlying trace,
    so a workload can prove its timed part never reached it.
    """

    def __init__(self, trace) -> None:
        self._trace = trace
        self._events: dict = {}
        self.misses = 0
        self.profile = trace.profile
        self.image = trace.image

    def __len__(self) -> int:
        return len(self._trace)

    def handler_fid(self, index: int) -> int:
        return self._trace.handler_fid(index)

    def event(self, index: int):
        event = self._events.get(index)
        if event is None:
            self.misses += 1
            event = self._events[index] = self._trace.event(index)
        return event

    def looper_stream(self, index: int):
        return self._trace.looper_stream(index)

    def packed_looper_stream(self, index: int):
        return self._trace.packed_looper_stream(index)


class SetupDone(Exception):
    """Raised where the timed part would start in a set-up-only sample."""


class Sample:
    """Timing, tracing and guard bookkeeping for one sample."""

    def __init__(self, spawned_at: float, workdir: Path,
                 tracer: Tracer | None, setup_only: bool = False) -> None:
        self.spawned_at = spawned_at
        self.workdir = workdir
        self.tracer = tracer
        self.setup_only = setup_only
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.disk_bytes = 0
        self.guards: list[dict] = []

    def timed(self, part):
        """Run ``part()`` as the timed part; set-up ends here."""
        self.setup_s = time.monotonic() - self.spawned_at
        if self.setup_only:
            raise SetupDone
        if self.tracer is not None:
            self.tracer.install()
        start = time.perf_counter()
        try:
            return part()
        finally:
            self.wall_s = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.uninstall()

    def guard(self, name: str, ok: bool, detail: str) -> None:
        self.guards.append({"name": name, "ok": bool(ok), "detail": detail})


def _files(root: Path, pattern: str) -> list[tuple[str, int, int]]:
    return sorted((str(path.relative_to(root)), path.stat().st_size,
                   path.stat().st_mtime_ns)
                  for path in root.rglob(pattern) if path.is_file())


def _disk_bytes(root: Path) -> int:
    return sum(size for _, size, _ in _files(root, "*"))


def _figure_results(runner, apps, preset_names) -> dict:
    from repro.sim import presets

    out = {}
    for app in apps:
        for name in preset_names:
            config = presets.by_name(name)
            out[(app, name)] = (runner.run(app, config), config)
    return out


def _figures_part(cache: Path, seed: int, apps, names):
    """The timed part of a figures workload: one ``ExperimentRunner`` on
    ``cache`` regenerates and formats the figures ``names``."""
    from repro.sim import figures
    from repro.sim.experiments import ExperimentRunner

    def part():
        runner = ExperimentRunner(cache_dir=cache, scale=SCALE, seed=seed)
        for name in names:
            getattr(figures, name)(runner, apps=apps).format()
        return runner

    return part


def figures_cold(sample: Sample, seed: int, apps) -> dict:
    """Regenerate figures from an empty cache: trace generation and the
    ``.espt`` dump, walker re-materialisation, every configuration,
    result-cache writes and figure assembly."""
    names, preset_names = WORKLOADS["figures-cold"]
    cache = sample.workdir / "cache"
    cache.mkdir()
    present = list(cache.iterdir())
    sample.guard("starts on an empty cache", not present,
                 f"{len(present)} entries before the timed part")
    runner = sample.timed(_figures_part(cache, seed, apps, names))
    sample.disk_bytes = _disk_bytes(cache)
    written = _files(cache, "*.espt")
    sample.guard("records one trace per app", len(written) == len(apps),
                 f"{len(written)} .espt files for {len(apps)} apps")
    return _figure_results(runner, apps, preset_names)


def figures_recorded(sample: Sample, seed: int, apps) -> dict:
    """A fresh runner sweeps configurations over traces recorded in
    set-up: ``.espt`` decode instead of the walker, result-cache writes
    and figure assembly."""
    from repro.sim.experiments import ExperimentRunner

    names, preset_names = WORKLOADS["figures-recorded"]
    cache = sample.workdir / "cache"
    recorder = ExperimentRunner(cache_dir=cache, scale=SCALE, seed=seed)
    for app in apps:
        recorder.trace(app)
    # a worker that only reads recorded traces holds none of the recorder's
    # in-memory traces
    del recorder
    recorded = _files(cache, "*.espt")
    sample.guard("set-up records one trace per app",
                 len(recorded) == len(apps),
                 f"{len(recorded)} .espt files for {len(apps)} apps")
    before = _disk_bytes(cache)
    runner = sample.timed(_figures_part(cache, seed, apps, names))
    sample.disk_bytes = _disk_bytes(cache) - before
    walked = sample.tracer.report()["workloads.event.calls"]
    sample.guard("timed part materialises no event through the walker",
                 walked == 0, f"{walked} EventTrace.event calls")
    after = _files(cache, "*.espt")
    sample.guard("timed part writes no .espt", after == recorded,
                 f"{len(after)} .espt files, {len(recorded)} before")
    return _figure_results(runner, apps, preset_names)


def esp_resident(sample: Sample, seed: int, apps) -> dict:
    """The core loop, the ESP controller and runahead over events that
    set-up materialised and packed (one untimed ``baseline`` run each)."""
    from repro import EventTrace, get_app, presets
    from repro.sim.simulator import Simulator

    _, preset_names = WORKLOADS["esp-resident"]
    traces = {}
    for app in apps:
        trace = ResidentTrace(EventTrace(get_app(app), scale=SCALE,
                                         seed=seed))
        Simulator(trace, presets.baseline()).run()
        trace.misses = 0
        traces[app] = trace
    configs = {name: presets.by_name(name) for name in preset_names}

    def part():
        return {(app, name): (Simulator(traces[app], config).run(), config)
                for app in apps for name, config in configs.items()}

    results = sample.timed(part)
    misses = sum(trace.misses for trace in traces.values())
    sample.guard("timed part reaches the underlying trace for no event",
                 misses == 0, f"{misses} events fetched")
    return results


def simulate_api(sample: Sample, seed: int, apps) -> dict:
    """``repro.simulate`` per (app, preset): each call builds its own code
    image and trace; no disk, no ESP."""
    import repro
    from repro import presets

    _, preset_names = WORKLOADS["simulate-api"]
    simulate = repro.simulate
    configs = {name: presets.by_name(name) for name in preset_names}

    def part():
        return {(app, name): (simulate(app, config, scale=SCALE, seed=seed),
                              config)
                for app in apps for name, config in configs.items()}

    return sample.timed(part)


RUNNERS = {
    "figures-cold": figures_cold,
    "figures-recorded": figures_recorded,
    "esp-resident": esp_resident,
    "simulate-api": simulate_api,
}

#: spans the premise guards read in untraced samples
GUARD_SPANS = {"figures-recorded": ("workloads.event",)}


def instructions_per_run(app: str, seed: int) -> int:
    """Instructions one simulation of ``app`` retires: the looper stream
    and the true stream of every event, warm-up included."""
    from repro import EventTrace, get_app

    trace = EventTrace(get_app(app), scale=SCALE, seed=seed)
    return sum(len(trace.looper_stream(k)) + len(trace.event(k))
               for k in range(len(trace)))


def run_sample(args) -> dict:
    if args.trace:
        tracer = Tracer()
        tracer.calibrate()
    elif args.workload in GUARD_SPANS:
        tracer = Tracer({name: SPANS[name]
                         for name in GUARD_SPANS[args.workload]})
    else:
        tracer = None
    sample = Sample(args.spawned_at, Path(args.workdir), tracer,
                    setup_only=args.setup_only)
    record: dict = {"workload": args.workload, "seed": args.seed}
    try:
        results = RUNNERS[args.workload](sample, args.seed, args.apps)
    except SetupDone:
        record["setup_s"] = sample.setup_s
        return record
    except Exception:  # noqa: BLE001 — reported to run.py as a failed pass
        record["error"] = traceback.format_exc(limit=8)
        return record
    record.update({
        "setup_s": sample.setup_s,
        "wall_s": sample.wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "disk_mb": sample.disk_bytes / 1e6,
        "guards": sample.guards,
        "digests": {f"{app}/{name}": digest(result)
                    for (app, name), (result, _) in results.items()},
    })
    if args.trace:
        record["why"] = why_counters(results)
        record["spans"] = tracer.report()
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--apps", type=lambda text: tuple(text.split(",")),
                        required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--spawned-at", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--inputs", action="store_true")
    args = parser.parse_args(argv)
    if args.inputs:
        record = {app: instructions_per_run(app, args.seed)
                  for app in args.apps}
    else:
        record = run_sample(args)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
