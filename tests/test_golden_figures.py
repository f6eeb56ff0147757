"""Golden regression test for every reproduced figure.

At a fixed small scale and seed, every figure function's ``to_dict()`` is
hashed and compared against ``tests/golden_figures.json``, and the
HMeans of figure 9 and the headline are checked against recorded values
with a tolerance (the readable failure when a model change moves the
paper's main claims). Any drift must be a deliberate, reviewed golden
update; regenerate with::

    PYTHONPATH=src python tests/test_golden_figures.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.tables import hmean
from repro.sim import figures
from repro.sim.experiments import ExperimentRunner

GOLDEN = Path(__file__).with_name("golden_figures.json")

#: three apps keep the whole grid to about ten seconds; at scale 0.1 ESP
#: already pre-executes on each of them
APPS = ("bing", "gmaps", "pixlr")
SCALE = 0.1
SEED = 0
#: absolute tolerance on the recorded HMeans, in percentage points
HMEAN_TOLERANCE = 0.05
#: figures whose per-series HMean improvement is recorded
HMEAN_FIGURES = ("figure9", "headline")

STATIC = ("figure6", "figure7", "figure8")


def _digest(figure: figures.FigureResult) -> str:
    blob = json.dumps(figure.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _hmean_pct(per_app: dict[str, float]) -> float:
    """The HMEAN column of a figure table: hmean of 1 + pct/100, in %."""
    return round((hmean([1.0 + v / 100.0 for v in per_app.values()])
                  - 1.0) * 100.0, 6)


def compute(cache_dir) -> dict:
    """Every figure's digest plus the recorded HMeans at the golden point."""
    runner = ExperimentRunner(cache_dir=cache_dir, scale=SCALE, seed=SEED)
    digests = {}
    results = {}
    for name, fn in figures.ALL_FIGURES.items():
        result = fn(runner) if name in STATIC else fn(runner, apps=APPS)
        results[name] = result
        digests[name] = _digest(result)
    hmeans = {name: {label: _hmean_pct(per_app)
                     for label, per_app in results[name].series.items()}
              for name in HMEAN_FIGURES}
    return {"apps": list(APPS), "scale": SCALE, "seed": SEED,
            "digests": digests, "hmean": hmeans}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    return compute(tmp_path_factory.mktemp("golden-cache"))


def test_golden_point_matches(golden):
    assert (golden["apps"], golden["scale"], golden["seed"]) == \
        (list(APPS), SCALE, SEED)


@pytest.mark.parametrize("name", HMEAN_FIGURES)
def test_hmeans_within_tolerance(name, golden, computed):
    expected = golden["hmean"][name]
    got = computed["hmean"][name]
    assert set(got) == set(expected)
    for label, value in expected.items():
        assert got[label] == pytest.approx(value, abs=HMEAN_TOLERANCE), \
            label


def test_every_figure_is_indexed(golden):
    assert set(golden["digests"]) == set(figures.ALL_FIGURES)


@pytest.mark.parametrize("name", sorted(figures.ALL_FIGURES))
def test_figure_digest_unchanged(name, golden, computed):
    assert computed["digests"][name] == golden["digests"][name], name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = compute(tmp)
    GOLDEN.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
