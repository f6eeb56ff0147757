"""Tests for the per-figure experiment harnesses (restricted to small
workloads so the suite stays fast; the benchmarks run the full grids)."""

import pytest

from repro.obs.runlog import iter_records
from repro.sim import figures
from repro.sim.experiments import ExperimentRunner

APPS = ("pixlr",)


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    return ExperimentRunner(cache_dir=cache, scale=0.6, seed=0,
                            log_dir=cache / "logs")


def _run_records(runner, cache: str) -> list[dict]:
    """The run-log records whose cache disposition is ``cache``; every
    runner here logs to ``<cache_dir>/logs``."""
    return [record for record in iter_records(runner.cache_dir / "logs")
            if record["kind"] == "run" and record["cache"] == cache]


class TestStaticFigures:
    def test_figure6(self):
        result = figures.figure6()
        assert "amazon" in result.text
        assert "pixlr" in result.text
        assert result.figure_id == "Figure 6"

    def test_figure7(self):
        result = figures.figure7()
        assert "Pentium M" in result.text
        assert "96-entry" in result.text

    def test_figure8(self):
        result = figures.figure8()
        assert "12.6" in result.text

    def test_static_figures_via_registry(self):
        for name in ("figure6", "figure7", "figure8"):
            assert figures.ALL_FIGURES[name](None).format()


class TestSimulatedFigures:
    def test_figure9_structure(self, runner):
        result = figures.figure9(runner, apps=APPS)
        assert set(result.series) == {"NL", "NL + S", "Runahead",
                                      "Runahead + NL", "ESP", "ESP + NL"}
        assert set(result.series["NL"]) == set(APPS)
        assert "Figure 9" in result.format()

    def test_figure3_structure(self, runner):
        result = figures.figure3(runner, apps=APPS)
        assert "perfect All" in result.series
        assert result.series["perfect All"]["pixlr"] > 0

    def test_figure11a_values_positive(self, runner):
        result = figures.figure11a(runner, apps=APPS)
        for series in result.series.values():
            for value in series.values():
                assert value >= 0

    def test_figure11b_rates_bounded(self, runner):
        result = figures.figure11b(runner, apps=APPS)
        for series in result.series.values():
            for value in series.values():
                assert 0 <= value <= 100

    def test_figure12_rates_bounded(self, runner):
        result = figures.figure12(runner, apps=APPS)
        assert len(result.series) == 5
        for series in result.series.values():
            for value in series.values():
                assert 0 < value < 100

    def test_figure13_structure(self, runner):
        result = figures.figure13(runner, depth=3, apps=APPS)
        assert set(result.series) == {"Max", "95%", "85%", "75%"}
        assert "Normal" in result.series["Max"]
        assert "ESP3" in result.series["Max"]
        assert result.series["Max"]["Normal"] > 0

    def test_figure14_structure(self, runner):
        result = figures.figure14(runner, apps=APPS)
        assert "energy overhead vs NL" in result.series
        assert "extra instructions" in result.series
        assert result.series["extra instructions"]["pixlr"] > 0

    def test_headline_structure(self, runner):
        result = figures.headline(runner, apps=APPS)
        assert "ESP + NL over NL + S" in result.series

    def test_format_includes_notes(self, runner):
        result = figures.figure9(runner, apps=APPS)
        assert "Paper HMeans" in result.format()

    def test_registry_complete(self):
        for name in ("figure3", "figure6", "figure7", "figure8", "figure9",
                     "figure10", "figure11a", "figure11b", "figure12",
                     "figure13", "figure14", "headline"):
            assert name in figures.ALL_FIGURES


class TestPlan:
    def test_cold_figure_reads_each_result_once(self, tmp_path):
        """A cold figure simulates each cell once and reads none back, so
        ``repro stats`` does not count its own cells as cache hits."""
        runner = ExperimentRunner(cache_dir=tmp_path, scale=0.1, seed=0,
                                  log_dir=tmp_path / "logs")
        figures.figure9(runner, apps=APPS)
        assert len(_run_records(runner, "simulated")) == 7
        assert _run_records(runner, "memory") == []

    def test_plan_holds_every_grid_figure_run(self, runner):
        """After the plan's batch no grid figure simulates anything: a
        figure reading a pair outside :data:`FIGURE_PRESETS` fails here."""
        pairs = figures.plan(list(figures.ALL_FIGURES), APPS)
        assert len({(app, config.cache_key())
                    for app, config in pairs}) == 28 * len(APPS)
        assert set(figures.ALL_FIGURES) - set(figures.FIGURE_PRESETS) \
            == {"figure6", "figure7", "figure8", "figure13"}
        runner.run_many(pairs)
        simulated = len(_run_records(runner, "simulated"))
        hits = len(_run_records(runner, "memory"))
        for name in figures.FIGURE_PRESETS:
            figures.ALL_FIGURES[name](runner, apps=APPS)
        assert len(_run_records(runner, "simulated")) == simulated
        assert len(_run_records(runner, "memory")) > hits
