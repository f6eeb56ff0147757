"""Outside-in layer tracing for the benchmark.

The tracer wraps public functions of the simulator by object identity and
keeps one span record per layer in memory: self time, total time and call
count. Nothing inside ``src/`` knows it is being traced; the wrappers are
installed before the timed part of a workload and removed after it.

* A target is ``"module:qualname"``. A module-level function is replaced
  in every loaded module of the traced packages that holds the same
  object, so ``from … import`` aliases are traced too. A method is
  replaced on its class, so methods bound after installation (the
  simulator binds many at event start) are traced.
* A target that no longer exists is skipped: its span reports 0 calls.
* Every wrapped call costs time of its own. :meth:`Tracer.calibrate`
  measures that cost on a no-op function, split into the part charged to
  the wrapped span and the part charged to its caller, and
  :meth:`Tracer.report` subtracts it.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

#: span name -> the ``module:qualname`` targets it covers
SPANS: dict[str, tuple[str, ...]] = {
    "workloads.build_code_image": (
        "repro.workloads.codebase:build_code_image",),
    "workloads.trace_init": ("repro.workloads.generator:EventTrace.__init__",),
    "workloads.event": ("repro.workloads.generator:EventTrace.event",),
    "isa.dump_trace": ("repro.isa.tracefile:dump_trace",),
    "isa.load_trace": ("repro.isa.tracefile:load_trace",),
    "isa.decode": ("repro.isa.tracefile:LoadedTrace.event",),
    "isa.pack": ("repro.isa.stream:PackedStream.from_instructions",),
    "sim.init": ("repro.sim.simulator:Simulator.__init__",),
    "sim.run": ("repro.sim.simulator:Simulator.run",),
    "esp.begin_event": ("repro.esp.controller:EspController.begin_event",),
    "esp.on_stall": ("repro.esp.controller:EspController.on_stall",),
    "runahead.on_stall": (
        "repro.runahead.runahead:RunaheadController.on_stall",),
    "memory.miss_after_l1": (
        "repro.memory.hierarchy:MemoryHierarchy.miss_after_l1",),
    "memory.access": ("repro.memory.hierarchy:MemoryHierarchy.access",),
    "memory.prefetch": ("repro.memory.hierarchy:MemoryHierarchy.prefetch",),
    "branch.execute_branch": (
        "repro.branch.pentium_m:PentiumMPredictor.execute_branch",),
    "core.exposed": ("repro.core.stalls:DataStallModel.exposed",),
    "prefetch.table": ("repro.prefetch.stride:StridePrefetcher.observe",
                       "repro.prefetch.pif:PifPrefetcher.observe",
                       "repro.prefetch.efetch:EfetchPrefetcher.observe"),
    "experiments.trace": ("repro.sim.experiments:ExperimentRunner.trace",),
    "experiments.run_many": (
        "repro.sim.experiments:ExperimentRunner.run_many",),
    "resilience.wrap_result": ("repro.resilience.integrity:wrap_result",),
    "resilience.unwrap_result": ("repro.resilience.integrity:unwrap_result",),
    "analysis.figure": tuple(
        f"repro.sim.figures:{name}"
        for name in ("figure3", "figure9", "figure10", "figure11a",
                     "figure11b", "figure12", "figure13", "figure14",
                     "headline")),
    "energy.compute_energy": ("repro.energy.model:compute_energy",),
}

# indices into a span's stats list (a list, not an object: the wrapper
# runs on the simulator's hottest calls)
_SELF, _TOTAL, _CALLS, _CHILD, _DESC = range(5)


def _resolve(target: str):
    """``(owner, attribute, raw)`` for a ``module:qualname`` target, or
    None when the module, class or attribute no longer exists. ``raw`` is
    the attribute as stored on its owner (a ``classmethod`` stays one)."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(attr)
    if raw is None:
        return None
    return owner, attr, raw


class Tracer:
    """In-memory span recorder; see the module docstring.

    ``clock`` is injectable so tests can drive time by hand. ``packages``
    names the top-level packages whose modules are searched for aliases
    of module-level targets.
    """

    def __init__(self, spans: dict[str, tuple[str, ...]] | None = None,
                 clock=time.perf_counter,
                 packages: tuple[str, ...] = ("repro",)) -> None:
        self.spans = dict(SPANS if spans is None else spans)
        self.clock = clock
        self.packages = packages
        self.stats = {name: [0.0, 0.0, 0, 0, 0] for name in self.spans}
        #: per-call wrapper cost charged inside the wrapped span, and the
        #: part charged to its caller (seconds), set by :meth:`calibrate`
        self.cost_inside = 0.0
        self.cost_outside = 0.0
        # the root frame: time covered by top-level spans, their calls,
        # and every call
        self._stack: list[list] = [[0.0, 0, 0]]
        self._undo: list = []
        self._started = 0.0
        self.wall_s = 0.0

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, stats: list):
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # [time in child spans, child calls, all nested calls]
            frame = [0.0, 0, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[0] += elapsed
                parent[1] += 1
                parent[2] += frame[2] + 1
                stats[_SELF] += elapsed - frame[0]
                stats[_TOTAL] += elapsed
                stats[_CALLS] += 1
                stats[_CHILD] += frame[1]
                stats[_DESC] += frame[2]

        return wrapper

    def _modules(self):
        for name, module in list(sys.modules.items()):
            if module is not None and name.partition(".")[0] in self.packages:
                yield module

    def install(self) -> None:
        """Wrap every resolvable target and start the clock."""
        for name, targets in self.spans.items():
            for target in targets:
                resolved = _resolve(target)
                if resolved is None:
                    continue
                owner, attr, raw = resolved
                if isinstance(owner, type):
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(self._wrap(raw.__func__,
                                                       self.stats[name]))
                    else:
                        wrapped = self._wrap(raw, self.stats[name])
                    setattr(owner, attr, wrapped)
                    self._undo.append((owner, attr, raw))
                    continue
                wrapped = self._wrap(raw, self.stats[name])
                modules = {id(module): module for module in self._modules()}
                modules[id(owner)] = owner
                for module in modules.values():
                    for alias, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, alias, wrapped)
                            self._undo.append((module, alias, raw))
        self._started = self.clock()

    def uninstall(self) -> None:
        """Stop the clock and restore every replaced attribute."""
        self.wall_s = self.clock() - self._started
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- calibration ---------------------------------------------------------

    def calibrate(self, calls: int = 20000, repeats: int = 7) -> None:
        """Measure the wrapper's own cost per call on a no-op function of
        three arguments (the shape of the hot targets), as the median of
        ``repeats`` batches of ``calls`` calls."""
        def noop(a, b, c):
            return None

        clock = self.clock
        inside, outside = [], []
        for _ in range(repeats):
            stats = [0.0, 0.0, 0, 0, 0]
            wrapped = self._wrap(noop, stats)
            start = clock()
            for _ in range(calls):
                noop(1, 2, 3)
            raw = clock() - start
            start = clock()
            for _ in range(calls):
                wrapped(1, 2, 3)
            traced = clock() - start
            self._stack[0][:] = [0.0, 0, 0]
            cost = (traced - raw) / calls
            cost_in = (stats[_TOTAL] - raw) / calls
            inside.append(cost_in)
            outside.append(cost - cost_in)
        self.cost_inside = statistics.median(inside)
        self.cost_outside = statistics.median(outside)

    # -- results -------------------------------------------------------------

    def report(self) -> dict[str, float]:
        """Calibrated ``<span>.self_s`` / ``.total_s`` / ``.calls`` for
        every span, ``other.self_s`` (time no span covers) and the
        wrapper cost ``trace.overhead_s`` / ``trace.overhead_frac``."""
        c_in, c_out = self.cost_inside, self.cost_outside
        out: dict[str, float] = {}
        calls = 0
        for name, stats in sorted(self.stats.items()):
            calls += stats[_CALLS]
            out[f"{name}.self_s"] = (stats[_SELF] - stats[_CALLS] * c_in
                                     - stats[_CHILD] * c_out)
            out[f"{name}.total_s"] = (stats[_TOTAL] - stats[_CALLS] * c_in
                                      - stats[_DESC] * (c_in + c_out))
            out[f"{name}.calls"] = stats[_CALLS]
        covered, top_calls, _ = self._stack[0]
        out["other.self_s"] = self.wall_s - covered - top_calls * c_out
        overhead = calls * (c_in + c_out)
        out["trace.overhead_s"] = overhead
        out["trace.overhead_frac"] = overhead / self.wall_s \
            if self.wall_s else 0.0
        return out
