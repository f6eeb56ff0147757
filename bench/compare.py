"""Compare two sets of benchmark runs, such as a parent commit and a change.

    python3 bench/compare.py parent.jsonl change.jsonl

Each file holds the records ``bench/run.py --jsonl FILE`` appends, one per
workload run. Runs are paired in file order within each workload and
trace mode, so record the two sides alternately, with the same seeds in
the same order. For every workload and metric the script prints each
side's median and quartiles over runs, the fraction of pairs the second
side won (ties count for neither) and a verdict:

* counts (``*.calls``, the why-counters, ``failed_frac``) must be equal
  in every pair: ``match`` or ``MISMATCH``;
* ``improved`` when the second side wins at least 9 of 10 pairs and the
  medians differ by more than the first side's spread between quartiles;
* ``regressed`` when a metric with a bound in ``BENCHMARK.json`` has a
  median worse than the first side's by more than that bound, or when a
  metric without one loses 9 of 10 pairs by more than the spread;
* ``unresolved`` when the first side's own spread is wider than the bound
  and the sides do not separate completely;
* ``no change`` otherwise.

The exit status is 1 when any metric regressed or any count differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import WHY_COUNTERS

BENCH = Path(__file__).resolve().parent

WIN_SHARE = 0.9


def is_exact(name: str) -> bool:
    """Counts, which must repeat exactly between runs of the same seed."""
    return (name.endswith(".calls") or name in WHY_COUNTERS
            or name == "failed_frac")


def load_runs(path: Path) -> dict[tuple[str, int], list[dict]]:
    """``(workload, trace) -> [metrics of each run]`` in file order."""
    runs: dict[tuple[str, int], list[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs.setdefault((record["workload"], record["trace"]),
                            []).append(record["metrics"])
    return runs


def load_directions(path: Path) -> dict[str, tuple[str, float | None]]:
    """``metric -> (better, bound)`` from ``BENCHMARK.json``."""
    spec = json.loads(path.read_text())
    return {metric["name"]: (metric["better"], metric.get("bound"))
            for metric in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(name: str, a: list[float], b: list[float], better: str,
            bound: float | None) -> tuple[str, float]:
    """The verdict for one metric and the share of pairs ``b`` won."""
    pairs = list(zip(a, b))
    if is_exact(name):
        return ("match" if all(x == y for x, y in pairs) else "MISMATCH",
                0.0)
    sign = 1.0 if better == "higher" else -1.0
    won = sum(1 for x, y in pairs if sign * (y - x) > 0)
    lost = sum(1 for x, y in pairs if sign * (y - x) < 0)
    share = won / len(pairs) if pairs else 0.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    gain = sign * (b_med - a_med)
    if share >= WIN_SHARE and gain > a_q3 - a_q1:
        return "improved", share
    if bound is None:
        if pairs and lost / len(pairs) >= WIN_SHARE \
                and -gain > b_q3 - b_q1:
            return "regressed", share
        return "no change", share
    if -gain > bound * abs(a_med):
        return "regressed", share
    separated = (min(b) > max(a)) if sign > 0 else (max(b) < min(a))
    if a_med and (a_q3 - a_q1) / abs(a_med) > bound and not separated:
        return "unresolved", share
    return "no change", share


def compare(a_path: Path, b_path: Path, spec_path: Path) -> int:
    directions = load_directions(spec_path)
    side_a, side_b = load_runs(a_path), load_runs(b_path)
    bad = 0
    for key in sorted(set(side_a) & set(side_b)):
        workload, trace = key
        runs_a, runs_b = side_a[key], side_b[key]
        print(f"{workload} (trace {trace}): {len(runs_a)} vs "
              f"{len(runs_b)} runs")
        names = sorted(set(runs_a[0]) & set(runs_b[0]))
        for name in names:
            a = [run[name]["value"] for run in runs_a if name in run]
            b = [run[name]["value"] for run in runs_b if name in run]
            # metrics outside BENCHMARK.json (wall_s) are times: lower
            better, bound = directions.get(name, ("lower", None))
            result, share = verdict(name, a, b, better, bound)
            bad += result in ("regressed", "MISMATCH")
            a_q1, a_med, a_q3 = quartiles(a)
            b_q1, b_med, b_q3 = quartiles(b)
            print(f"  {name:<40} A {a_med:.6g} [{a_q1:.6g}, {a_q3:.6g}]"
                  f"  B {b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}]"
                  f"  won {share:.0%}  {result}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="first side (e.g. parent)")
    parser.add_argument("b", type=Path, help="second side (e.g. change)")
    parser.add_argument("--spec", type=Path,
                        default=BENCH.parent / "BENCHMARK.json")
    args = parser.parse_args(argv)
    return compare(args.a, args.b, args.spec)


if __name__ == "__main__":
    sys.exit(main())
