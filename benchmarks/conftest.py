"""Shared fixtures for the figure benchmarks.

Each benchmark regenerates one of the paper's tables/figures. Simulation
results are cached on disk (``.repro_cache/`` at the repo root, override
with ``REPRO_CACHE_DIR``), so figures sharing runs — e.g. ``baseline`` is
in Figures 9, 10, 11a and 11b, and the ``ESP + NL`` key in Figures 9, 10,
12, 14 and the headline — do the work once.

Workload size scales with ``REPRO_SCALE`` (default 1.0 ≈ 1/1000 of the
paper's trace sizes). Figure text is echoed to stdout (run with ``-s`` or
rely on pytest-benchmark's output) and appended to
``benchmarks/output/figures.txt`` for the EXPERIMENTS.md record.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.sim.experiments import ExperimentRunner

_OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    return ExperimentRunner()


@pytest.fixture(scope="session")
def record_figure():
    """Print a figure and persist it to ``output/<figure id>.txt`` (one
    file per figure, so partial re-runs refresh only what they produced)."""
    _OUTPUT_DIR.mkdir(exist_ok=True)

    def _record(figure) -> None:
        text = figure.format()
        print()
        print(text)
        slug = figure.figure_id.lower().replace(" ", "")
        (_OUTPUT_DIR / f"{slug}.txt").write_text(text + "\n")

    return _record


def hmean_improvement(series: dict[str, float]) -> float:
    """Harmonic-mean improvement (in %) across an app series."""
    speedups = [1.0 + value / 100.0 for value in series.values()]
    return (len(speedups) / sum(1.0 / s for s in speedups) - 1.0) * 100.0


def mean(series: dict[str, float]) -> float:
    return sum(series.values()) / len(series)
