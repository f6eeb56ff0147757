"""One entry point per table/figure in the paper's evaluation (Section 6).

Each grid figure declares the presets it simulates in
:data:`FIGURE_PRESETS`, runs them as one grid batch through a shared
:class:`~repro.sim.experiments.ExperimentRunner` (so common runs are
cached) and returns a :class:`FigureResult` whose ``series`` maps
``configuration -> app -> value``, mirroring the paper's bar charts.
:func:`plan` gives the pairs of several figures, so a caller can run them
all as one batch before assembling any. The ``format()`` output is what
``EXPERIMENTS.md`` records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import quantiles

from repro.analysis.tables import format_figure_table
from repro.energy import format_area_table
from repro.sim import presets
from repro.sim.config import EspConfig, SimConfig
from repro.sim.experiments import ExperimentRunner
from repro.sim.results import SimResult
from repro.sim.simulator import Simulator
from repro.workloads import APP_NAMES, APPS


@dataclass
class FigureResult:
    """Data behind one reproduced figure."""

    figure_id: str
    title: str
    #: series label -> app -> value
    series: dict[str, dict[str, float]] = field(default_factory=dict)
    unit: str = "%"
    summary: str = "hmean"
    notes: str = ""
    text: str = ""

    def to_dict(self) -> dict:
        """JSON-serialisable form (for tooling and archival)."""
        return {
            "figure_id": self.figure_id,
            "title": self.title,
            "unit": self.unit,
            "series": {label: dict(values)
                       for label, values in self.series.items()},
            "notes": self.notes,
            "text": self.text,
        }

    def format(self) -> str:
        if self.text:
            return self.text
        out = format_figure_table(f"{self.figure_id}: {self.title}",
                                  self.series, unit=self.unit,
                                  summary=self.summary)
        if self.notes:
            out += f"\n{self.notes}"
        return out


def _apps(apps):
    """Late-bound app list: tests restrict figures to a subset."""
    return tuple(apps) if apps is not None else tuple(APP_NAMES)


#: The presets each grid figure simulates, baseline first. A figure is an
#: (app x preset) grid, so these names are the whole of its simulation
#: work: :func:`plan` turns several figures' names into one batch.
#: ``figure13`` instruments a :class:`Simulator` directly and is not here.
FIGURE_PRESETS = {
    "figure3": ("potential_baseline", "perfect_l1d", "perfect_branch",
                "perfect_l1i", "perfect_all"),
    "figure9": ("baseline", "nl", "nl_s", "runahead", "runahead_nl", "esp",
                "esp_nl"),
    "figure10": ("baseline", "naive_esp", "naive_esp_nl", "esp_i_nl",
                 "esp_ib_nl", "esp_ibd_nl"),
    "figure11a": ("baseline", "nl_i", "esp_i", "esp_i_nl_i",
                  "ideal_esp_i_nl_i"),
    "figure11b": ("baseline", "nl_d", "runahead_d", "runahead_d_nl_d",
                  "esp_d", "esp_d_nl_d", "ideal_esp_d_nl_d"),
    "figure12": ("bp_base", "bp_no_extra_hw", "bp_separate_context",
                 "bp_separate_tables", "bp_esp"),
    "figure14": ("nl", "esp_nl"),
    "headline": ("nl_s", "esp_nl", "runahead_nl"),
}


def plan(names, apps=None) -> list[tuple[str, SimConfig]]:
    """The (app, config) pairs the figures ``names`` simulate, each preset
    once: run them as one ``run_many`` batch and every figure then
    assembles from the cache. Names without presets contribute nothing."""
    wanted = dict.fromkeys(preset for name in names
                           for preset in FIGURE_PRESETS.get(name, ()))
    return [(app, presets.by_name(preset))
            for preset in wanted for app in _apps(apps)]


def _grid(runner: ExperimentRunner, name: str,
          apps) -> dict[str, dict[str, SimResult]]:
    """Figure ``name``'s grid, ``{config name: {app: result}}`` in
    :data:`FIGURE_PRESETS` order, as one batch labelled ``name``."""
    return runner.grid([presets.by_name(preset)
                        for preset in FIGURE_PRESETS[name]],
                       _apps(apps), label=name)


def _improvements(grid) -> dict[str, dict[str, float]]:
    """Every row after the first as % improvement over the first."""
    (_, base), *rows = grid.items()
    return {label: {app: result.improvement_over(base[app])
                    for app, result in row.items()}
            for label, row in rows}


def _metric(grid, metric) -> dict[str, dict[str, float]]:
    """``metric(result)`` for every cell; the ``baseline`` row is
    labelled ``base``."""
    return {"base" if label == "baseline" else label:
            {app: metric(result) for app, result in row.items()}
            for label, row in grid.items()}


# ---------------------------------------------------------------------------
# Figure 3: performance potential

def figure3(runner: ExperimentRunner, apps=None) -> FigureResult:
    """Speedup from perfect L1-D / branch predictor / L1-I / everything."""
    series = _improvements(_grid(runner, "figure3", apps))
    return FigureResult(
        "Figure 3", "Performance potential in web applications",
        series=series,
        notes="Paper HMeans: perfect L1D ~ +18%, perfect BP ~ +23%, "
              "perfect L1I ~ +45%, perfect All ~ +98%.")


# ---------------------------------------------------------------------------
# Figure 6: benchmark table

def figure6() -> FigureResult:
    """The benchmark applications (paper session sizes and ours)."""
    lines = [f"{'app':<10}{'paper events':>14}{'paper Minstr':>14}"
             f"{'our events':>12}{'our instr':>12}  actions"]
    from repro.workloads import EventTrace

    for app in APPS.values():
        trace = EventTrace(app)
        total = sum(trace._target_len)
        lines.append(
            f"{app.name:<10}{app.paper_events:>14,}{app.paper_minstr:>14,}"
            f"{len(trace):>12}{total:>12,}  {app.actions[:48]}")
    return FigureResult("Figure 6", "Benchmark web applications",
                        text="\n".join(lines))


# ---------------------------------------------------------------------------
# Figure 7: simulator configuration

def figure7() -> FigureResult:
    """The simulated machine."""
    cfg = SimConfig()
    lines = [
        f"Core           {cfg.core.width}-wide, "
        f"{cfg.core.frequency_ghz} GHz OoO, {cfg.core.rob_entries}-entry "
        f"ROB, {cfg.core.lsq_entries}-entry LSQ",
        f"L1-(I,D)-Cache {cfg.memory.l1i.size_bytes // 1024} KB, "
        f"{cfg.memory.l1i.assoc}-way, {cfg.memory.l1i.line_bytes} B lines, "
        f"{cfg.memory.l1i.hit_latency} cycle hit latency, LRU",
        f"L2 Cache       {cfg.memory.l2.size_bytes // (1024 * 1024)} MB, "
        f"{cfg.memory.l2.assoc}-way, {cfg.memory.l2.line_bytes} B lines, "
        f"{cfg.memory.l2.hit_latency} cycle hit latency, LRU",
        f"Main Memory    {cfg.memory.dram_latency} cycle access latency",
        f"Branch Pred.   Pentium M, {cfg.core.mispredict_penalty} cycle "
        f"mispredict penalty; {cfg.branch.global_entries}-entry global, "
        f"{cfg.branch.ibtb_entries}-entry iBTB, {cfg.branch.btb_entries}"
        f"-entry BTB, {cfg.branch.loop_entries}-entry loop, "
        f"{cfg.branch.local_entries}-entry local",
        "Prefetchers    Instruction: next-line (NL); "
        "Data: NL (DCU), stride (256 entries)",
    ]
    return FigureResult("Figure 7", "Simulator configuration",
                        text="\n".join(lines))


# ---------------------------------------------------------------------------
# Figure 8: ESP hardware budget

def figure8() -> FigureResult:
    """Added hardware state (12.6 KB ESP-1, 1.2 KB ESP-2 in the paper)."""
    return FigureResult("Figure 8", "ESP hardware configuration",
                        text=format_area_table())


# ---------------------------------------------------------------------------
# Figure 9: headline performance comparison

def figure9(runner: ExperimentRunner, apps=None) -> FigureResult:
    """ESP vs next-line vs runahead, normalised to no prefetching."""
    series = _improvements(_grid(runner, "figure9", apps))
    return FigureResult(
        "Figure 9", "Performance of ESP, Next-Line and Runahead",
        series=series,
        notes="Paper HMeans: NL ~ +13.8%, NL+S ~ +13.9%, Runahead ~ +12%, "
              "Runahead+NL ~ +21%, ESP+NL ~ +32%.")


# ---------------------------------------------------------------------------
# Figure 10: sources of performance

def figure10(runner: ExperimentRunner, apps=None) -> FigureResult:
    """Naive ESP vs the staged ESP-I / ESP-I,B / ESP-I,B,D designs."""
    series = _improvements(_grid(runner, "figure10", apps))
    return FigureResult(
        "Figure 10", "Sources of performance in ESP",
        series=series,
        notes="Paper: naive ESP ~ 0% (can degrade), I-lists contribute the "
              "largest share, then B-lists, then D-lists.")


# ---------------------------------------------------------------------------
# Figure 11a: instruction-cache performance

def figure11a(runner: ExperimentRunner, apps=None) -> FigureResult:
    """L1-I MPKI across I-side configurations."""
    series = _metric(_grid(runner, "figure11a", apps),
                     lambda result: result.l1i_mpki)
    return FigureResult(
        "Figure 11a", "L1 I-cache misses per kilo-instruction",
        series=series, unit="MPKI", summary="mean",
        notes="Paper HMeans: base ~23.5, NL-I ~17.5, ESP-I+NL-I ~11.6, "
              "ideal slightly lower.")


# ---------------------------------------------------------------------------
# Figure 11b: data-cache performance

def figure11b(runner: ExperimentRunner, apps=None) -> FigureResult:
    """L1-D miss rate across D-side configurations."""
    series = _metric(_grid(runner, "figure11b", apps),
                     lambda result: 100.0 * result.l1d_miss_rate)
    return FigureResult(
        "Figure 11b", "L1 D-cache miss rate",
        series=series, unit="% miss rate", summary="mean",
        notes="Paper HMeans: base ~4.4%, NL-D ~3.2%, Runahead-D+NL-D ~0.8%, "
              "ESP-D+NL-D ~1.8% (runahead wins the data side; ideal ESP-D "
              "closes most of the gap).")


# ---------------------------------------------------------------------------
# Figure 12: branch-predictor design space

def figure12(runner: ExperimentRunner, apps=None) -> FigureResult:
    """Branch misprediction rate for the ESP BP design points."""
    series = _metric(_grid(runner, "figure12", apps),
                     lambda result: 100.0 * result.branch_misprediction_rate)
    return FigureResult(
        "Figure 12", "Branch misprediction rate",
        series=series, unit="% mispredicted", summary="mean",
        notes="Paper: base 9.9%, naive sharing ~no gain, replicated tables "
              "7.4%, ESP (separate context + B-list) 6.1%.")


# ---------------------------------------------------------------------------
# Figure 13: cachelet working-set sizing

def figure13(runner: ExperimentRunner, depth: int = 8,
             apps=None) -> FigureResult:
    """Distinct I-blocks touched per event in each ESP mode (deep queue).

    Reproduces the working-set study that justified 5.5 KB / 0.5 KB
    cachelets and stopping at two jump-ahead modes.
    """
    esp = EspConfig(
        enabled=True, depth=depth, ideal=True,
        i_cachelet_bytes=(5632,) * depth, d_cachelet_bytes=(5632,) * depth,
        i_list_bytes=(0,) * depth, d_list_bytes=(0,) * depth,
        b_list_dir_bytes=(0,) * depth, b_list_tgt_bytes=(0,) * depth)
    apps = _apps(apps)
    config = SimConfig(name=f"esp-depth{depth}",
                       prefetch=presets.nl().prefetch, esp=esp)
    per_mode: dict[int, list[int]] = {m: [] for m in range(depth)}
    normal: list[int] = []
    for app in apps:
        sim = Simulator(runner.trace(app), config)
        sim.collect_working_sets = True
        sim.run()
        for event_sets in sim.esp.i_working_sets:
            for mode, count in event_sets.items():
                if count:
                    per_mode[mode].append(count)
        normal.extend(sim.normal_i_working_sets)

    def stats(counts: list[int]) -> dict[str, float]:
        if not counts:
            return {"Max": 0.0, "95%": 0.0, "85%": 0.0, "75%": 0.0}
        counts = sorted(counts)
        if len(counts) >= 4:
            q = quantiles(counts, n=20, method="inclusive")
            return {"Max": float(counts[-1]), "95%": q[18], "85%": q[16],
                    "75%": q[14]}
        return {"Max": float(counts[-1]), "95%": float(counts[-1]),
                "85%": float(counts[-1]), "75%": float(counts[-1])}

    columns = {"Normal": stats(normal)}
    for mode in range(depth):
        columns[f"ESP{mode + 1}"] = stats(per_mode[mode])
    series = {
        level: {col: columns[col][level] for col in columns}
        for level in ("Max", "95%", "85%", "75%")
    }
    return FigureResult(
        "Figure 13", "I-cachelet working-set sizes (cache blocks)",
        series=series, unit="64 B blocks", summary=None,
        notes="Paper: ESP-1 95% working set ~ 5.5 KB (88 blocks), ESP-2 "
              "~0.5 KB (8 blocks); deeper modes are rarely exercised, "
              "justifying the depth-2 design.")


# ---------------------------------------------------------------------------
# Figure 14: energy overhead

def figure14(runner: ExperimentRunner, apps=None) -> FigureResult:
    """ESP energy relative to the NL baseline, plus extra instructions."""
    nl, esp = _grid(runner, "figure14", apps).values()
    series = {
        "energy overhead vs NL": {
            app: 100.0 * (esp[app].energy.total / nl[app].energy.total
                          - 1.0)
            for app in nl},
        "extra instructions": {
            app: 100.0 * esp[app].extra_instruction_fraction for app in nl},
    }
    return FigureResult(
        "Figure 14", "Energy overhead of ESP",
        series=series, unit="%", summary="mean",
        notes="Paper: ~8% more energy for ~21.2% more executed "
              "instructions (per-app extras 11.7%-31.5%).")


# ---------------------------------------------------------------------------
# Headline numbers (Sections 1 and 6.1)

def headline(runner: ExperimentRunner, apps=None) -> FigureResult:
    """The abstract's claims: ESP +16% over NL+S baseline; runahead +6.4%."""
    series = {f"{label} over NL + S": row for label, row in
              _improvements(_grid(runner, "headline", apps)).items()}
    return FigureResult(
        "Headline", "Improvement over the NL+S baseline (Section 6.1)",
        series=series,
        notes="Paper: ESP +16% and runahead +6.4% over the NL+S baseline.")


ALL_FIGURES = {
    "figure3": figure3,
    "figure6": lambda runner: figure6(),
    "figure7": lambda runner: figure7(),
    "figure8": lambda runner: figure8(),
    "figure9": figure9,
    "figure10": figure10,
    "figure11a": figure11a,
    "figure11b": figure11b,
    "figure12": figure12,
    "figure13": figure13,
    "figure14": figure14,
    "headline": headline,
}
