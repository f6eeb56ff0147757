"""Cold-path benchmark of the ESP reproduction.

Run from the root of a checkout::

    python3 bench/run.py --workload figures-cold --seed 0 --seconds 25
    python3 bench/run.py --workload esp-resident --trace 1
    python3 bench/run.py --smoke            # every workload, pixlr only
    python3 bench/run.py --write-reference  # regenerate bench/reference/

Each sample is a fresh interpreter (``bench/workloads.py``) with ``src``
on ``PYTHONPATH`` and every ``REPRO_*`` variable removed, which sets up
one workload and times one pass of it. Samples repeat until the next one
would end after ``--seconds``; every metric is the median over samples.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` and
``--trace 1`` the per-layer ones. Every simulation is checked against the
digest in ``bench/reference/``; the command exits 1 on any mismatch,
failed simulation or broken premise guard, and 2 when it cannot run.

The workload seed is ``--seed`` modulo :data:`SEED_POOL`, so every seed
maps onto inputs whose reference digests are stored. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``--jsonl FILE`` also appends a record with
quartiles and sample counts for ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import SPANS
from workloads import SCALE, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
WORKDIR = ROOT / ".bench_work"

APPS = ("bing", "pixlr")
SMOKE_APPS = ("pixlr",)
SEED_POOL = 16
DEFAULT_SECONDS = 25
#: set-up is timed at least this often per run (extra set-up-only samples
#: top up what the timed samples gave)
MIN_SETUPS = 3
#: a sample that has not finished by then is killed and counted as failed
SAMPLE_TIMEOUT_S = 150

#: end-to-end metrics (``--trace 0``): name -> unit
END_TO_END = {"minstr_per_s": "Minstr/s", "setup_s": "s",
              "peak_rss_mb": "MB"}
#: printed and recorded beside the end-to-end metrics, without a bound
INFO = {"wall_s": "s", "disk_mb": "MB", "failed_frac": "frac"}
WHY_COUNTERS = {
    "esp.mode_entries": "count",
    "esp.pre_instructions_per_entry": "instr",
    "esp.hinted_event_frac": "frac",
    "esp.i_cachelet_hit_frac": "frac",
    "prefetch.i_useful_frac": "frac",
    "prefetch.d_useful_frac": "frac",
    "memory.l1i_mpki": "MPKI",
    "memory.l1d_miss_frac": "frac",
    "branch.mispredict_frac": "frac",
}


def per_layer_units() -> dict[str, str]:
    """Per-layer metrics (``--trace 1``): name -> unit."""
    units = {}
    for span in sorted(SPANS):
        units[f"{span}.self_s"] = "s"
        units[f"{span}.total_s"] = "s"
        units[f"{span}.calls"] = "count"
    units.update({"other.self_s": "s", "trace.overhead_s": "s",
                  "trace.overhead_frac": "frac", "disk_mb": "MB"})
    units.update(WHY_COUNTERS)
    return units


# -- references ---------------------------------------------------------------

def _reference_path(name: str) -> Path:
    return REFERENCE / f"{name}.json"


def load_reference(name: str) -> dict:
    path = _reference_path(name)
    return json.loads(path.read_text()) if path.exists() else {}


# -- samples ------------------------------------------------------------------

def _child_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(args: list[str], workdir: Path) -> dict:
    """Run ``bench/workloads.py`` with ``args`` in ``workdir`` and return
    its JSON record (``{"error": ...}`` when it produced none)."""
    command = [sys.executable, str(BENCH / "workloads.py"), *args,
               "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(command, cwd=workdir, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"sample timed out after {SAMPLE_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"unreadable sample output: {lines[-1][:200]}"}


def run_sample(workload: str, seed: int, apps, trace: int,
               setup_only: bool = False) -> dict:
    workdir = WORKDIR / f"{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    flags = ["--setup-only"] if setup_only else []
    try:
        return _spawn(["--workload", workload, "--seed", str(seed),
                       "--apps", ",".join(apps), "--trace", str(trace),
                       "--workdir", str(workdir), *flags], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_sample(sample: dict, workload: str, seed: int, apps,
                 reference: dict) -> list[str]:
    """Problems with one sample: errors, broken guards, digests that are
    missing or differ from the reference. Empty means correct."""
    if "error" in sample:
        return [sample["error"].strip()]
    problems = [f"guard failed: {guard['name']} ({guard['detail']})"
                for guard in sample["guards"] if not guard["ok"]]
    expected = reference.get("seeds", {}).get(str(seed), {})
    for app in apps:
        for preset in WORKLOADS[workload][1]:
            key = f"{app}/{preset}"
            got = sample["digests"].get(key)
            want = expected.get(app, {}).get(preset)
            if want is None:
                problems.append(f"{key}: no reference digest for seed {seed}")
            elif got != want:
                problems.append(f"{key}: digest {got} != reference {want}")
    return problems


def _summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def measure(workload: str, seed: int, apps, trace: int, seconds: float,
            max_samples: int | None = None) -> dict:
    """Repeat samples until the next would end after ``seconds``, then
    time set-up alone until it has :data:`MIN_SETUPS` values; return the
    run's record (metrics as median and quartiles over samples)."""
    workload_seed = seed % SEED_POOL
    reference = load_reference(workload)
    inputs = load_reference("inputs").get("seeds", {}).get(
        str(workload_seed), {})
    n_sims = len(apps) * len(WORKLOADS[workload][1])
    samples, problems = [], []
    start = time.monotonic()
    longest = 0.0
    while True:
        began = time.monotonic()
        sample = run_sample(workload, workload_seed, apps, trace)
        longest = max(longest, time.monotonic() - began)
        found = check_sample(sample, workload, workload_seed, apps,
                             reference)
        problems += found
        samples.append((sample, not found))
        if max_samples is not None and len(samples) >= max_samples:
            break
        if time.monotonic() - start + longest > seconds:
            break
    good = [sample for sample, ok in samples if ok]
    attempted = n_sims * len(samples)
    failed = n_sims * (len(samples) - len(good))
    values: dict[str, list[float]] = {}
    if trace:
        units = per_layer_units()
        for sample in good:
            merged = {**sample["spans"], **sample["why"],
                      "disk_mb": sample["disk_mb"]}
            for name in units:
                values.setdefault(name, []).append(merged[name])
    else:
        units = {**END_TO_END, **INFO}
        missing = [app for app in apps if app not in inputs]
        if missing:
            problems.append(f"no reference instruction count for {missing}")
            good = []
        for sample in good:
            instructions = sum(inputs[app] for app in apps) \
                * len(WORKLOADS[workload][1])
            values.setdefault("minstr_per_s", []).append(
                instructions / sample["wall_s"] / 1e6)
            for name in ("setup_s", "peak_rss_mb", "wall_s", "disk_mb"):
                values.setdefault(name, []).append(sample[name])
        setups = values.get("setup_s", [])
        while good and max_samples is None and len(setups) < MIN_SETUPS:
            probe = run_sample(workload, workload_seed, apps, 0,
                               setup_only=True)
            if "error" in probe:
                problems.append(probe["error"].strip())
                break
            setups.append(probe["setup_s"])
        values["failed_frac"] = [failed / attempted]
    metrics = {name: {**_summary(values[name]), "unit": units[name]}
               for name in units if values.get(name)}
    return {"workload": workload, "seed": seed,
            "workload_seed": workload_seed, "trace": trace,
            "samples": len(samples), "correct": not problems and bool(good),
            "attempted": attempted, "failed": failed, "metrics": metrics,
            "problems": problems}


def print_record(record: dict) -> None:
    print(f"{record['workload']}: seed {record['seed']} (workload seed "
          f"{record['workload_seed']}), {record['samples']} sample(s), "
          f"{record['failed']}/{record['attempted']} simulations failed")
    for problem in record["problems"]:
        print(f"  PROBLEM {problem}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}  "
              f"(q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}, "
              f"n={metric['n']})")


def result_line(records: list[dict], trace: int) -> dict:
    """The final JSON line: the contracted metrics of one workload, or of
    every workload as ``<workload>/<metric>``."""
    names = per_layer_units() if trace else END_TO_END
    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else f"{record['workload']}/"
        for name in names:
            if name in record["metrics"]:
                metric = record["metrics"][name]
                metrics[prefix + name] = {"value": metric["value"],
                                          "unit": metric["unit"]}
    return {"correct": all(record["correct"] for record in records),
            "attempted": sum(record["attempted"] for record in records),
            "failed": sum(record["failed"] for record in records),
            "metrics": metrics}


# -- reference generation ----------------------------------------------------

def write_reference(seeds) -> int:
    """Record every workload's digests and the per-app instruction counts
    for ``seeds``, merged into the existing files. Pairs that two
    workloads share must agree, or nothing is written."""
    files = {name: load_reference(name) for name in [*WORKLOADS, "inputs"]}
    for seed in seeds:
        print(f"seed {seed}", flush=True)
        counts = _spawn(["--inputs", "--seed", str(seed), "--apps",
                         ",".join(APPS)], ROOT)
        if "error" in counts:
            print(counts["error"], file=sys.stderr)
            return 1
        files["inputs"].setdefault("seeds", {})[str(seed)] = counts
        seen: dict[str, tuple[str, str]] = {}
        for workload in WORKLOADS:
            sample = run_sample(workload, seed, APPS, 0)
            broken = sample.get("error") or [
                guard for guard in sample["guards"] if not guard["ok"]]
            if broken:
                print(f"{workload}: {broken}", file=sys.stderr)
                return 1
            entry = files[workload].setdefault("seeds", {}).setdefault(
                str(seed), {})
            for key, value in sample["digests"].items():
                app, preset = key.split("/")
                entry.setdefault(app, {})[preset] = value
                other = seen.setdefault(key, (workload, value))
                if other[1] != value:
                    print(f"seed {seed} {key}: {workload} gives {value}, "
                          f"{other[0]} gives {other[1]}", file=sys.stderr)
                    return 1
    REFERENCE.mkdir(exist_ok=True)
    for name, content in files.items():
        content["scale"] = SCALE
        _reference_path(name).write_text(
            json.dumps(content, indent=1, sort_keys=True) + "\n")
    return 0


# -- entry point --------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Cold-path benchmark of the ESP reproduction.")
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int,
                        help="input seed; 1 is held out for verifying "
                             "claims (default 0)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measure for about this long per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="pixlr only, one sample per workload")
    parser.add_argument("--jsonl", type=Path,
                        help="append each workload's record to this file")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate bench/reference/ (every seed of "
                             "the pool, or only --seed when given)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            return write_reference(range(SEED_POOL) if args.seed is None
                                   else [args.seed % SEED_POOL])
        return run_workloads(args)
    finally:
        if WORKDIR.exists() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()


def run_workloads(args) -> int:
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    apps = SMOKE_APPS if args.smoke else APPS
    seed = 0 if args.seed is None else args.seed
    records = []
    for workload in workloads:
        record = measure(workload, seed, apps, args.trace,
                         args.seconds, max_samples=1 if args.smoke else None)
        print_record(record)
        records.append(record)
        if args.jsonl is not None:
            with args.jsonl.open("a") as out:
                out.write(json.dumps(record) + "\n")
    line = result_line(records, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
