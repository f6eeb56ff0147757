"""Aggregate JSONL run logs into harness-level statistics.

Backs the ``repro stats`` CLI subcommand: reads the records written by
:mod:`repro.obs.runlog`, and reduces them to per-app throughput, cache hit
rates, retry counts (requeued tasks broken out), the execution context
that served the simulated runs (``serial`` parent or ``process`` pool
worker: the per-app ``backend`` column plus the ``backends —`` summary
line), detected cache corruptions (per artifact kind) and permanently
failed tasks, and the largest peak resident set a pool worker reported
(``peak_rss_mb`` of its ``simulated`` records: the parent's own
``ru_maxrss`` never covers a worker), as a human-readable table plus a
machine-readable summary dict (``--json``). Every quarantine event the harness performs is a
``corrupt`` record, so this report is the audit trail of how much
on-disk state had to be regenerated. Fields this module does not know
(such as the ``kernel`` / ``memo_*`` / ``fidelity`` fields of logs
written before those mechanisms were removed) are ignored, and so are
record kinds it does not know (such as the ``worker-join`` / ``steal`` /
``fetch`` records of the retired remote backend, the ``checkpoint`` /
``resume`` / ``stalled`` records of the retired mid-simulation
checkpointing and worker watchdog, or the ``backend-choice`` /
``fanout-disabled`` records of the retired backend picker), so old logs
still summarise.
"""

from __future__ import annotations

_HIT_DISPOSITIONS = ("memory", "disk")


def _fresh_app_bucket() -> dict:
    return {"runs": 0, "simulated": 0, "cache_hits": 0, "retries": 0,
            "requeued": 0, "corruptions": 0, "failures": 0,
            "backends": {},
            "trace_load_s": 0.0, "simulate_s": 0.0, "store_s": 0.0}


def summarize(records) -> dict:
    """Reduce run-log ``records`` to an aggregate summary.

    Returns a JSON-serialisable dict::

        {"runs": int, "simulated": int, "cache_hits": int,
         "cache_hit_rate": float, "retries": int, "requeued": int,
         "corruptions": int, "corrupt_by_artifact": {artifact: int},
         "task_failures": int, "backends": {backend: int},
         "simulate_s": float, "worker_peak_rss_mb": float | None,
         "apps": {app: {...per-app...}}}

    Per-app buckets carry run/hit/retry/corruption/failure counts, the
    execution backends that served the simulated runs, the summed
    trace-load / simulate / store seconds, the mean simulation time and
    the simulation throughput (simulated runs per second of simulate
    time). ``requeued`` counts
    the retry records whose reason was ``requeued`` — healthy tasks that
    lost their executor, a subset of ``retries``.
    """
    apps: dict[str, dict] = {}
    runs = simulated = cache_hits = retries = requeued = 0
    corruptions = task_failures = 0
    worker_peak_rss_mb = None
    corrupt_by_artifact: dict[str, int] = {}
    for record in records:
        kind = record.get("kind")
        app = record.get("app", "?")
        if kind == "run":
            bucket = apps.setdefault(app, _fresh_app_bucket())
            runs += 1
            bucket["runs"] += 1
            if record.get("cache") in _HIT_DISPOSITIONS:
                cache_hits += 1
                bucket["cache_hits"] += 1
            else:
                simulated += 1
                bucket["simulated"] += 1
                # pre-backend logs have no "backend" field; skip rather
                # than invent an "unknown" bucket for them
                backend = record.get("backend")
                if backend:
                    backends = bucket["backends"]
                    backends[backend] = backends.get(backend, 0) + 1
            for field in ("trace_load_s", "simulate_s", "store_s"):
                value = record.get(field)
                if isinstance(value, (int, float)):
                    bucket[field] += value
            peak = record.get("peak_rss_mb")
            if isinstance(peak, (int, float)):
                worker_peak_rss_mb = peak if worker_peak_rss_mb is None \
                    else max(worker_peak_rss_mb, peak)
        elif kind == "retry":
            retries += 1
            bucket = apps.setdefault(app, _fresh_app_bucket())
            bucket["retries"] += 1
            if record.get("reason") == "requeued":
                requeued += 1
                bucket["requeued"] += 1
        elif kind == "corrupt":
            corruptions += 1
            artifact = record.get("artifact", "?")
            corrupt_by_artifact[artifact] = \
                corrupt_by_artifact.get(artifact, 0) + 1
            if app and app != "?":
                bucket = apps.setdefault(app, _fresh_app_bucket())
                bucket["corruptions"] += 1
        elif kind == "task-failed":
            task_failures += 1
            apps.setdefault(app, _fresh_app_bucket())["failures"] += 1
    for bucket in apps.values():
        sim_s = bucket["simulate_s"]
        n_sim = bucket["simulated"]
        bucket["mean_simulate_s"] = sim_s / n_sim if n_sim else 0.0
        bucket["throughput_per_s"] = n_sim / sim_s if sim_s > 0 else 0.0
        bucket["hit_rate"] = (bucket["cache_hits"] / bucket["runs"]
                              if bucket["runs"] else 0.0)
    backends_total: dict[str, int] = {}
    for bucket in apps.values():
        for backend, count in bucket["backends"].items():
            backends_total[backend] = backends_total.get(backend, 0) + count
    return {
        "runs": runs,
        "simulated": simulated,
        "cache_hits": cache_hits,
        "cache_hit_rate": cache_hits / runs if runs else 0.0,
        "retries": retries,
        "requeued": requeued,
        "corruptions": corruptions,
        "corrupt_by_artifact": {a: corrupt_by_artifact[a]
                                for a in sorted(corrupt_by_artifact)},
        "task_failures": task_failures,
        "backends": {b: backends_total[b] for b in sorted(backends_total)},
        "simulate_s": sum(b["simulate_s"] for b in apps.values()),
        "worker_peak_rss_mb": worker_peak_rss_mb,
        "apps": {app: apps[app] for app in sorted(apps)},
    }


def _backend_cell(backends: dict) -> str:
    """The ``backend`` column value for one backends histogram: the sole
    backend that served the bucket, ``mixed`` when several did, ``-``
    when nothing simulated (or the log predates backend stamping)."""
    if not backends:
        return "-"
    if len(backends) == 1:
        return next(iter(backends))
    return "mixed"


def format_table(summary: dict) -> str:
    """Render a :func:`summarize` dict as a fixed-width text table."""
    if not summary["runs"] and not summary["retries"] \
            and not summary.get("corruptions"):
        return "no run records found"
    lines = [
        f"{'app':<12} {'runs':>6} {'sim':>6} {'hits':>6} {'hit%':>6} "
        f"{'sim s':>9} {'mean s':>8} {'sims/s':>8} "
        f"{'backend':>7} "
        f"{'retry':>5} {'corr':>4} {'fail':>4}"
    ]
    for app, b in summary["apps"].items():
        lines.append(
            f"{app:<12} {b['runs']:>6} {b['simulated']:>6} "
            f"{b['cache_hits']:>6} {100 * b['hit_rate']:>5.1f}% "
            f"{b['simulate_s']:>9.3f} {b['mean_simulate_s']:>8.3f} "
            f"{b['throughput_per_s']:>8.2f} "
            f"{_backend_cell(b.get('backends', {})):>7} "
            f"{b['retries']:>5} "
            f"{b.get('corruptions', 0):>4} {b.get('failures', 0):>4}")
    lines.append(
        f"{'total':<12} {summary['runs']:>6} {summary['simulated']:>6} "
        f"{summary['cache_hits']:>6} "
        f"{100 * summary['cache_hit_rate']:>5.1f}% "
        f"{summary['simulate_s']:>9.3f} {'':>8} {'':>8} "
        f"{_backend_cell(summary.get('backends', {})):>7} "
        f"{summary['retries']:>5} {summary.get('corruptions', 0):>4} "
        f"{summary.get('task_failures', 0):>4}")
    if summary.get("backends"):
        parts = ", ".join(f"{backend}: {count}" for backend, count
                          in summary["backends"].items())
        lines.append(f"backends — {parts}")
    if summary.get("worker_peak_rss_mb") is not None:
        lines.append(f"worker peak RSS — "
                     f"{summary['worker_peak_rss_mb']:.1f} MB")
    if summary.get("corrupt_by_artifact"):
        detail = ", ".join(f"{artifact}: {count}" for artifact, count
                           in summary["corrupt_by_artifact"].items())
        lines.append(f"corrupt artifacts quarantined — {detail}")
    if summary.get("requeued"):
        lines.append(
            f"resilience — tasks requeued: {summary['requeued']}")
    return "\n".join(lines)
