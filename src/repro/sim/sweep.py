"""Generic parameter sweeps over simulation configurations.

The ablation studies (jump depth, list capacity, prefetch lead, bandwidth…)
all share one shape: take a base configuration, vary one knob over a set of
values, run the (config × app) grid, and compare a metric against a
baseline. :class:`ParameterSweep` captures that shape once so ablations —
in the benchmarks, the examples, or interactive use — are declarative:

    sweep = ParameterSweep(
        base=presets.esp_nl(),
        vary=lambda cfg, lead: cfg.replace(
            esp=dataclasses.replace(cfg.esp, prefetch_lead=lead)),
        values=[20, 190, 1500])
    table = sweep.run(runner, apps=("amazon", "bing"))

Sweeps inherit the runner's execution backend: the whole (config × app)
grid is submitted as one ``run_many`` batch, so whatever
``ExperimentRunner(backend=...)`` (or ``REPRO_BACKEND``) resolved to —
serial, process pool, remote fleet, or the auto pick — fans the sweep
out without any sweep-specific plumbing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.analysis.tables import hmean
from repro.sim import presets as preset_module
from repro.sim.config import SimConfig
from repro.sim.experiments import ExperimentRunner
from repro.sim.results import SimResult


@dataclass
class SweepPoint:
    """Results of one sweep value across the app set."""

    value: object
    config: SimConfig
    results: dict[str, SimResult]
    improvements: dict[str, float]

    @property
    def hmean_improvement(self) -> float:
        return (hmean([1.0 + v / 100.0
                       for v in self.improvements.values()]) - 1.0) * 100.0


@dataclass
class SweepResult:
    """All points of one sweep, with formatting helpers."""

    knob: str
    points: list[SweepPoint] = field(default_factory=list)

    def best(self) -> SweepPoint:
        return max(self.points, key=lambda p: p.hmean_improvement)

    def as_series(self) -> dict[str, float]:
        return {str(p.value): p.hmean_improvement for p in self.points}

    def format(self) -> str:
        lines = [f"sweep: {self.knob} (HMean improvement % over baseline)"]
        for point in self.points:
            marker = " <- best" if point is self.best() else ""
            lines.append(f"  {str(point.value):>12}: "
                         f"{point.hmean_improvement:6.2f}%{marker}")
        return "\n".join(lines)


class ParameterSweep:
    """Declarative one-knob sweep."""

    def __init__(self, base: SimConfig,
                 vary: Callable[[SimConfig, object], SimConfig],
                 values: Sequence[object],
                 baseline: SimConfig | None = None,
                 knob: str = "value") -> None:
        if not values:
            raise ValueError("sweep needs at least one value")
        self.base = base
        self.vary = vary
        self.values = list(values)
        self.baseline = baseline or preset_module.baseline()
        self.knob = knob

    def run(self, runner: ExperimentRunner,
            apps: Iterable[str]) -> SweepResult:
        """Run the sweep's full (config × app) grid through ``runner``."""
        apps = list(apps)
        # build every point's config up front so the whole sweep fans out
        # over the runner's worker processes in one batch
        configs: list[SimConfig] = []
        for value in self.values:
            config = self.vary(self.base, value)
            if not isinstance(config, SimConfig):
                raise TypeError("vary() must return a SimConfig")
            configs.append(config.replace(
                name=f"{self.base.name}[{self.knob}={value}]"))
        # run_many returns one result per pair in order, so the rows can
        # be sliced straight out of the flat batch; the label names the
        # grid manifest a crashed sweep leaves behind for --resume
        flat = runner.run_many([(app, cfg)
                                for cfg in [self.baseline] + configs
                                for app in apps],
                               label=f"sweep:{self.base.name}:{self.knob}")
        it = iter(flat)
        base_results = {app: next(it) for app in apps}
        sweep = SweepResult(knob=self.knob)
        for value, config in zip(self.values, configs):
            results = {app: next(it) for app in apps}
            improvements = {
                app: results[app].improvement_over(base_results[app])
                for app in apps
            }
            sweep.points.append(SweepPoint(value, config, results,
                                           improvements))
        return sweep


def esp_knob(name: str) -> Callable[[SimConfig, object], SimConfig]:
    """A ``vary`` function replacing one field of the ESP sub-config."""

    def vary(config: SimConfig, value: object) -> SimConfig:
        return config.replace(
            esp=dataclasses.replace(config.esp, **{name: value}))

    return vary


def core_knob(name: str) -> Callable[[SimConfig, object], SimConfig]:
    """A ``vary`` function replacing one field of the core sub-config."""

    def vary(config: SimConfig, value: object) -> SimConfig:
        return config.replace(
            core=dataclasses.replace(config.core, **{name: value}))

    return vary
