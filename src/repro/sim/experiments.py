"""Experiment harness: runs (app × configuration) grids with result caching.

Every figure in the paper is a grid of simulation runs over the same seven
applications. Several figures share underlying runs (e.g. ``baseline`` is
in Figures 9, 10, 11a and 11b, and the ``esp_nl`` key in Figures 9, 10, 12,
14 and the headline; see ``repro.sim.figures.FIGURE_PRESETS``), so the
harness caches finished :class:`~repro.sim.results.SimResult` objects on
disk keyed by ``(app, config digest, scale, seed, result-schema digest)``
— regenerating one figure is cheap once its runs exist, and the full
suite shares work. The schema digest makes entries written by an older
``SimResult`` layout self-invalidate instead of deserialising wrongly.
The scale component of keys and trace filenames is normalised through
``repr(float(scale))`` so ``scale=1`` (int) and ``scale=1.0`` (float) of
the same workload share one cache entry.

The worker count is the one fan-out setting: ``REPRO_JOBS`` (or the
``jobs`` constructor argument / ``--jobs`` CLI flag, default 1). At 1,
:meth:`ExperimentRunner.run_many` runs every missing (app, config) pair
in-process; above 1, or whenever a task timeout is set, it hands their
first tries to :func:`repro.exec.run_pool`, one process pool of
``min(jobs, missing pairs)`` workers per batch that owns
submission, per-task deadline accounting (measured from task *start*,
so queue wait behind busy workers is never charged against
``REPRO_TASK_TIMEOUT``), straggler cancellation, and the hand-back of
unfinished tasks to the serial retry ladder. Every simulation is a pure
function of its key, so parallel results are bit-identical to serial
ones; workers write the same on-disk caches atomically (write-to-temp +
rename), making concurrent writers safe.
Event traces are recorded once per (app, scale, seed) into the cache's
``traces/`` directory using the :mod:`repro.isa.tracefile` format, and
every simulation — in the parent or a worker — decodes its events from
that recording instead of regenerating them.

Fault tolerance: a worker that dies mid-batch (killed, OOM, crashed
interpreter) or exceeds the optional per-task timeout
(``REPRO_TASK_TIMEOUT`` seconds / the ``task_timeout`` argument) breaks
only its own tasks — the harness re-runs whatever is missing through one
serial retry ladder (up to ``REPRO_MAX_ATTEMPTS`` tries with exponential
``REPRO_RETRY_BACKOFF`` between them; with a timeout set, each try is a
one-task :func:`~repro.exec.run_pool` batch, so it stays bounded), so
:meth:`ExperimentRunner.run_many` always returns one result per requested
pair, in order. A task that exhausts its attempts is marked failed with a
reason — in the grid manifest and the run log — and the batch finishes the
rest before raising :class:`GridTaskError`, instead of hanging or dying on
the first casualty.

Crash safety: artifacts read back from disk are verified — ``.espt``
traces by their CRC32 footer, result-cache entries by the digest envelope
of :mod:`repro.resilience.integrity`, grid manifests by an embedded body
digest. A failed check quarantines the artifact under
``<cache>/quarantine/`` (never a silent delete), bumps the
``cache.corrupt`` metric, appends a ``corrupt`` run-log record, and
regenerates. Every ``run_many`` batch records a grid manifest under
``<cache>/manifests/``, written atomically when the batch starts and
when it ends. The digest-checked result cache records which tasks
finished, so an interrupted campaign, which keeps its incomplete start
manifest, resumes from where it stopped via
:meth:`ExperimentRunner.resume_grid` / ``repro run --resume``. The
``REPRO_FAULTS`` spec (see :mod:`repro.resilience.faults`) injects
deterministic corruption, torn writes, worker kills and grid interrupts
through these same paths for testing.

The task is the recovery unit: a worker lost after its simulation
began re-runs the task from its first event, which is bit-identical
because every simulation is a pure function of its key. A worker out of
memory is one of those losses: a ``MemoryError`` comes back as a task
error, a kernel OOM kill as a worker death. The disk guard degrades
before it fails: below ``REPRO_MIN_DISK_MB`` free, or after a cache
write fails, the runner switches to no-write-cache mode.

Observability: cache hits/misses/corruptions are counted in the
:mod:`repro.obs.metrics` registry (no-op by default), every simulation
request appends one structured JSONL record — key, config digest, seed,
scale, timings, worker pid, cache disposition — via
:mod:`repro.obs.runlog` (enabled by ``REPRO_LOG_DIR`` or whenever metrics
are on), and grid fan-outs render a :class:`~repro.obs.progress.ProgressLine`
on interactive stderr.

Scaling: the environment variable ``REPRO_SCALE`` (default 1.0) multiplies
every app's event count; ``REPRO_SEED`` changes the workload seed. The cache
key includes both. Malformed values of the harness environment knobs fall
back to their defaults with a single warning instead of crashing.

The per-figure experiment definitions live in :mod:`repro.sim.figures`.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Iterable

from repro.exec import jittered_backoff, run_pool
from repro.isa.tracefile import VERSION as TRACE_VERSION
from repro.isa.tracefile import (
    LoadedTrace,
    dump_trace,
    encode_trace,
    load_trace,
    parse_trace,
)
from repro.obs.metrics import get_registry
from repro.obs.progress import ProgressLine
from repro.obs.runlog import RunLogWriter, default_log_dir
from repro.resilience import (GridManifest, config_from_dict,
                              config_to_dict, get_fault_plan, quarantine,
                              unwrap_result, wrap_result)
from repro.sim.config import SimConfig
from repro.sim.results import RESULT_SCHEMA, SimResult
from repro.sim.simulator import Simulator
from repro.workloads import APP_NAMES, EventTrace, get_app

_CACHE_ENV = "REPRO_CACHE_DIR"
_SCALE_ENV = "REPRO_SCALE"
_SEED_ENV = "REPRO_SEED"
_JOBS_ENV = "REPRO_JOBS"
_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"
_LOG_DIR_ENV = "REPRO_LOG_DIR"
_MAX_ATTEMPTS_ENV = "REPRO_MAX_ATTEMPTS"
_BACKOFF_ENV = "REPRO_RETRY_BACKOFF"
_MIN_DISK_ENV = "REPRO_MIN_DISK_MB"

#: orphaned ``*.tmp`` files older than this are swept on construction
STALE_TMP_SECONDS = 3600.0

#: wall-clock step tolerance for the tmp sweep: a file is only deleted
#: once it looks stale by this margin *beyond* :data:`STALE_TMP_SECONDS`,
#: so an NTP step smaller than the margin can never push a live writer's
#: fresh temp file over the cutoff
TMP_CLOCK_TOLERANCE_SECONDS = 300.0

#: (wall, monotonic) pair captured at import — the anchor for
#: :func:`_anchored_now`
_CLOCK_ANCHOR = (time.time(), time.monotonic())


def _anchored_now() -> float:
    """A wall-clock "now" for age comparisons that a forward clock step
    cannot inflate: the smaller of the live wall clock and the anchor
    wall time advanced by the (step-immune) monotonic clock. Taking the
    minimum is deliberately conservative — when the two disagree, files
    look *younger*, and the sweep errs toward keeping them."""
    wall, mono = _CLOCK_ANCHOR
    return min(time.time(), wall + (time.monotonic() - mono))

#: ceiling on the exponential retry backoff between task attempts
MAX_BACKOFF_SECONDS = 30.0

#: env vars already warned about (one warning per malformed variable)
_warned_envs: set[str] = set()

#: the low-disk degradation warns once per process, not once per runner
_warned_low_disk = False


def _env_or_default(name: str, default, convert):
    """``convert(os.environ[name])``, falling back to ``default`` (with a
    single warning per variable) when the value is missing or malformed.

    All harness knobs go through this helper so they degrade consistently:
    a typo in ``REPRO_SCALE`` must not crash a batch any more than one in
    ``REPRO_JOBS`` does.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return convert(raw)
    except ValueError:
        if name not in _warned_envs:
            _warned_envs.add(name)
            warnings.warn(
                f"ignoring malformed {name}={raw!r}; using default "
                f"{default!r}", RuntimeWarning, stacklevel=3)
        return default


def default_scale() -> float:
    """Workload scale from ``REPRO_SCALE`` (default 1.0)."""
    return _env_or_default(_SCALE_ENV, 1.0, float)


def default_seed() -> int:
    """Workload seed from ``REPRO_SEED`` (default 0)."""
    return _env_or_default(_SEED_ENV, 0, int)


def default_jobs() -> int:
    """Worker-process count from ``REPRO_JOBS`` (default 1 = serial)."""
    return max(1, _env_or_default(_JOBS_ENV, 1, int))


def default_task_timeout() -> float | None:
    """Per-task timeout in seconds from ``REPRO_TASK_TIMEOUT``
    (default None = wait forever)."""
    timeout = _env_or_default(_TIMEOUT_ENV, None, float)
    if timeout is None or timeout <= 0:
        return None
    return timeout


def default_max_attempts() -> int:
    """Tries per grid task before it is marked failed, from
    ``REPRO_MAX_ATTEMPTS`` (default 3, floor 1)."""
    return max(1, _env_or_default(_MAX_ATTEMPTS_ENV, 3, int))


def default_retry_backoff() -> float:
    """Base delay in seconds between task attempts (doubles per retry,
    capped at :data:`MAX_BACKOFF_SECONDS`), from ``REPRO_RETRY_BACKOFF``
    (default 0.25)."""
    return max(0.0, _env_or_default(_BACKOFF_ENV, 0.25, float))


def default_min_disk_mb() -> int:
    """Free-space floor (MB) below which cache writes are disabled, from
    ``REPRO_MIN_DISK_MB`` (default 50; 0 disables the preflight)."""
    return max(0, _env_or_default(_MIN_DISK_ENV, 50, int))


class GridTaskError(RuntimeError):
    """Grid tasks exhausted their attempts.

    ``failures`` holds ``(key, app, reason)`` triples. Every other task of
    the batch still ran to completion and stayed cached, and the grid
    manifest records the failures, so ``repro run --resume`` retries only
    what failed.
    """

    def __init__(self, failures) -> None:
        self.failures = list(failures)
        detail = ", ".join(f"{app}: {reason}"
                           for _, app, reason in self.failures)
        super().__init__(
            f"{len(self.failures)} grid task(s) failed — {detail}")


def _is_writable(path: Path) -> bool:
    """Whether ``path`` (or its nearest existing ancestor) is writable."""
    probe = path
    while not probe.exists():
        parent = probe.parent
        if parent == probe:
            return False
        probe = parent
    return os.access(probe, os.W_OK)


def default_cache_dir() -> Path:
    """Result-cache directory.

    ``REPRO_CACHE_DIR`` when set; otherwise ``.repro_cache`` at the
    repository root, falling back to the current working directory when
    the checkout is read-only (installed packages, shared checkouts).
    """
    env = os.environ.get(_CACHE_ENV)
    if env:
        return Path(env)
    repo_cache = Path(__file__).resolve().parents[3] / ".repro_cache"
    if _is_writable(repo_cache):
        return repo_cache
    return Path.cwd() / ".repro_cache"


def _run_in_worker(app: str, config: SimConfig, scale: float, seed: int,
                   cache_dir: str, use_disk_cache: bool,
                   log_dir: str | None = None, attempt: int = 1) -> dict:
    """Worker-process entry point: run one simulation, sharing the on-disk
    caches — and the JSONL run log — with the parent (module-level so it
    pickles under fork and spawn alike). ``attempt`` distinguishes retries
    of the same task in fault-injection tokens, so an injected worker kill
    cannot pin a task down across its whole attempt budget.
    """
    get_fault_plan().maybe_kill_worker(
        f"{app}-{config.cache_key()}#{attempt}")
    runner = ExperimentRunner(cache_dir=cache_dir, scale=scale, seed=seed,
                              use_disk_cache=use_disk_cache, jobs=1,
                              log_dir=log_dir)
    runner.backend_label = "process"
    return runner.run(app, config).to_dict()


class ExperimentRunner:
    """Runs and caches simulations for the figure harnesses."""

    def __init__(self, cache_dir: Path | str | None = None,
                 scale: float | None = None, seed: int | None = None,
                 use_disk_cache: bool = True,
                 jobs: int | None = None,
                 task_timeout: float | None = None,
                 log_dir: Path | str | None = None,
                 max_attempts: int | None = None,
                 retry_backoff: float | None = None,
                 min_disk_mb: int | None = None) -> None:
        """``jobs`` (or ``REPRO_JOBS``, default 1) is the worker count
        for grid batches: above 1, uncached tasks fan out over a process
        pool. ``task_timeout`` (or ``REPRO_TASK_TIMEOUT``) bounds each
        task attempt; ``max_attempts`` / ``retry_backoff`` (or
        ``REPRO_MAX_ATTEMPTS`` / ``REPRO_RETRY_BACKOFF``) shape the retry
        schedule before a task is marked failed; ``log_dir`` forces JSONL
        run-logging into that directory (default: on when
        ``REPRO_LOG_DIR`` is set or metrics are enabled, next to the
        result cache). ``min_disk_mb`` (``REPRO_MIN_DISK_MB``) sets the
        disk guard's free-space floor."""
        self.scale = float(default_scale() if scale is None else scale)
        self.seed = default_seed() if seed is None else seed
        self.cache_dir = Path(cache_dir) if cache_dir is not None \
            else default_cache_dir()
        self.use_disk_cache = use_disk_cache
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        #: execution context stamped on this runner's run records:
        #: "serial" (parent / inline) or "process" (worker processes)
        self.backend_label = "serial"
        self.task_timeout = default_task_timeout() if task_timeout is None \
            else (task_timeout if task_timeout > 0 else None)
        self.max_attempts = default_max_attempts() if max_attempts is None \
            else max(1, int(max_attempts))
        self.retry_backoff = default_retry_backoff() \
            if retry_backoff is None else max(0.0, float(retry_backoff))
        self.min_disk_mb = default_min_disk_mb() if min_disk_mb is None \
            else max(0, int(min_disk_mb))
        self.metrics = get_registry()
        if log_dir is not None:
            self._runlog = RunLogWriter(log_dir)
        elif os.environ.get(_LOG_DIR_ENV) or \
                (self.metrics.enabled and use_disk_cache):
            self._runlog = RunLogWriter(default_log_dir(self.cache_dir))
        else:
            self._runlog = RunLogWriter(None)
        #: tries lost to a timeout or a dead worker, plus tasks requeued
        #: after a pool break or wedge took their worker
        self.retries = 0
        #: key -> why its latest try failed, as a ``_note_*`` callback
        #: recorded it; the serial ladder reads (and clears) it
        self._pool_failures: dict[str, str] = {}
        #: False once the disk-space preflight trips or a result write
        #: fails: caches are still read, but nothing new is written
        #: (results, traces, manifests) — degrade, don't fill the volume
        self.cache_writes_enabled = True
        self._memory: dict[str, SimResult] = {}
        self._traces: dict[str, EventTrace | LoadedTrace] = {}
        self._timings = (0.0, 0.0)
        if self.use_disk_cache:
            self._check_disk_space()
            self._sweep_stale_tmp()

    # -- cache hygiene ---------------------------------------------------------

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt artifacts are moved for post-mortem inspection."""
        return self.cache_dir / "quarantine"

    @property
    def manifest_dir(self) -> Path:
        """Where grid manifests (resumable campaign state) live."""
        return self.cache_dir / "manifests"

    def _note_corrupt(self, path: Path, artifact: str, key: str = "",
                      app: str = "") -> Path | None:
        """Account for one corrupt on-disk artifact: bump the corruption
        metrics, append a ``corrupt`` run-log record, and quarantine the
        file (returns the quarantine destination; ``None`` means the move
        failed — read-only cache — and regeneration overwrites in place).
        """
        self.metrics.inc("cache.corrupt")
        self.metrics.inc(f"cache.{artifact}.corrupt")
        dest = quarantine(path, self.quarantine_dir)
        if self._runlog.enabled:
            self._runlog.write({
                "kind": "corrupt", "ts": round(time.time(), 3),
                "artifact": artifact, "path": path.name,
                "quarantined": dest.name if dest else None,
                "key": key, "app": app, "pid": os.getpid()})
        return dest

    def _free_disk_mb(self) -> float | None:
        """Free space (MB) on the volume holding the cache directory
        (probed at its nearest existing ancestor), or None when it cannot
        be measured."""
        probe = self.cache_dir
        while not probe.exists():
            parent = probe.parent
            if parent == probe:
                return None
            probe = parent
        try:
            return shutil.disk_usage(probe).free / (1024 * 1024)
        except OSError:
            return None

    def _check_disk_space(self) -> None:
        """Disk-space preflight: below ``min_disk_mb`` free, stop writing
        caches — a nearly-full volume degrades the cache, it must never
        abort or corrupt a campaign."""
        if self.min_disk_mb <= 0:
            return
        free = self._free_disk_mb()
        if free is None or free >= self.min_disk_mb:
            return
        self._disable_cache_writes(
            f"only {free:.0f} MB free under {self.cache_dir} (floor "
            f"{_MIN_DISK_ENV}={self.min_disk_mb})")

    def _disable_cache_writes(self, why: str) -> None:
        """Flip the runner into no-write-cache mode (reads still work),
        with a single warning per process."""
        global _warned_low_disk
        self.cache_writes_enabled = False
        self.metrics.inc("runner.low_disk")
        if not _warned_low_disk:
            _warned_low_disk = True
            warnings.warn(f"{why}; cache writes disabled for this process",
                          RuntimeWarning, stacklevel=4)

    def _sweep_stale_tmp(self) -> None:
        """Remove ``*.tmp`` files orphaned by processes that died between
        the temp write and the atomic rename (older than
        :data:`STALE_TMP_SECONDS`; young ones may belong to live writers).

        Ages are measured against :func:`_anchored_now` — the
        monotonic-anchored floor of the wall clock — with an extra
        :data:`TMP_CLOCK_TOLERANCE_SECONDS` of slack before deletion, so
        an NTP step (in either direction) between a live writer stamping
        its mtime and this sweep running cannot make a seconds-old temp
        file look an hour stale. Files inside the tolerance band (stale
        by the nominal cutoff, fresh by the hardened one) are counted in
        ``cache.tmp_sweep_deferred`` rather than deleted — a persistent
        non-zero count there means the clocks writing this cache
        disagree by more than the sweep's slack.
        """
        if not self.cache_dir.exists():
            return
        now = _anchored_now()
        cutoff = now - STALE_TMP_SECONDS - TMP_CLOCK_TOLERANCE_SECONDS
        nominal_cutoff = now - STALE_TMP_SECONDS
        for pattern in ("*.tmp", "traces/*.tmp", "manifests/*.tmp"):
            for tmp in self.cache_dir.glob(pattern):
                try:
                    mtime = tmp.stat().st_mtime
                    if mtime < cutoff:
                        tmp.unlink()
                        self.metrics.inc("cache.tmp_swept")
                    elif mtime < nominal_cutoff:
                        self.metrics.inc("cache.tmp_sweep_deferred")
                except OSError:
                    pass  # vanished concurrently or unwritable: not ours

    # -- trace reuse -----------------------------------------------------------

    def _scale_tag(self) -> str:
        # repr(float()) so scale=1 (int) and scale=1.0 (float) — the same
        # workload — share cache keys and trace filenames
        return repr(float(self.scale))

    def _trace_path(self, app: str) -> Path:
        return (self.cache_dir / "traces" /
                f"{app}-s{self._scale_tag()}-r{self.seed}"
                f"-v{TRACE_VERSION}.espt")

    def trace(self, app: str) -> LoadedTrace | EventTrace:
        """The (cached) recorded event trace for ``app`` at this runner's
        scale.

        Every configuration simulates from a recording in
        :mod:`repro.isa.tracefile` format: generation costs one full CFG
        walk per event, decoding a recorded event straight into packed
        columns costs a fraction of that. A trace is generated and
        recorded once per (app, scale, seed) — onto disk when the disk
        cache is enabled, so parallel workers share it, in memory
        otherwise. Corrupt (CRC-footer mismatch, truncation) or
        stale-version files are quarantined and regenerated.
        """
        cached = self._traces.get(app)
        if cached is not None:
            return cached
        trace: EventTrace | LoadedTrace | None = None
        path = self._trace_path(app)
        if self.use_disk_cache and path.exists():
            try:
                trace = load_trace(path, profile=get_app(app))
                self.metrics.inc("cache.trace.hit")
            except (ValueError, EOFError, OSError):
                self._note_corrupt(path, "trace", app=app)
                trace = None
        if trace is None:
            self.metrics.inc("cache.trace.miss")
            generated = EventTrace(get_app(app), scale=self.scale,
                                   seed=self.seed)
            if self.use_disk_cache and self.cache_writes_enabled:
                try:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    dump_trace(generated, path)
                except OSError:
                    pass  # a read-only cache records in memory instead
                else:
                    plan = get_fault_plan()
                    if plan.active and plan.corrupt_file(
                            path, f"trace:{path.name}"):
                        # injected corruption: keep the (correct) trace
                        # out of the memory cache so the next lookup
                        # exercises detect + quarantine + regenerate
                        return generated
                    trace = load_trace(path, profile=generated.profile,
                                       image=generated.image)
            if trace is None:
                trace = parse_trace(encode_trace(generated),
                                    profile=generated.profile,
                                    image=generated.image)
        self._traces[app] = trace
        return trace

    # -- runs -----------------------------------------------------------------

    def _key(self, app: str, config: SimConfig) -> str:
        return (f"{app}-{config.cache_key()}-s{self._scale_tag()}"
                f"-r{self.seed}-{RESULT_SCHEMA}")

    def _load_cached(self, key: str) -> SimResult | None:
        cached = self._memory.get(key)
        if cached is not None:
            return cached
        if self.use_disk_cache:
            path = self.cache_dir / f"{key}.json"
            if path.exists():
                try:
                    payload, _verified = unwrap_result(path.read_text())
                    result = SimResult.from_dict(payload)
                    self._memory[key] = result
                    return result
                except (ValueError, TypeError, KeyError, OSError):
                    # IntegrityError and JSONDecodeError are ValueErrors:
                    # torn writes, bit flips and stale layouts land here
                    self._note_corrupt(path, "result", key=key)
        return None

    def _fetch_cached(self, key: str, app: str,
                      config: SimConfig) -> SimResult | None:
        """Cache lookup with hit accounting (metrics + run log)."""
        in_memory = key in self._memory
        cached = self._load_cached(key)
        if cached is not None:
            self.metrics.inc("cache.result.hit")
            self._log_run(key, app, config,
                          "memory" if in_memory else "disk")
        return cached

    def _store(self, key: str, result: SimResult) -> None:
        self._memory[key] = result
        if self.use_disk_cache and self.cache_writes_enabled:
            path = self.cache_dir / f"{key}.json"
            payload = wrap_result(result.to_dict())
            plan = get_fault_plan()
            if plan.active:
                torn = plan.torn(payload, f"store:{key}")
                if torn is not None:
                    # injected torn write: half an envelope lands, which
                    # the next reader's digest check must catch
                    payload = torn
            # write-to-temp + atomic rename: concurrent writers of the
            # same key each land a complete file, readers never see a
            # partial one (keys contain dots, so no with_suffix here)
            tmp = path.parent / (path.name + f".{os.getpid()}.tmp")
            try:
                self.cache_dir.mkdir(parents=True, exist_ok=True)
                tmp.write_text(payload)
                os.replace(tmp, path)
            except OSError as exc:
                # a full or failing volume costs the cache, never the
                # finished simulation
                with contextlib.suppress(OSError):
                    tmp.unlink()
                self._disable_cache_writes(
                    f"cannot write {path.name} under {self.cache_dir} "
                    f"({exc})")
                return
            self.metrics.inc("cache.result.stored")

    # -- run logging -----------------------------------------------------------

    def _log_run(self, key: str, app: str, config: SimConfig, cache: str,
                 trace_load_s: float = 0.0, simulate_s: float = 0.0,
                 store_s: float = 0.0) -> None:
        """Append one ``run`` record (no-op when logging is disabled)."""
        if not self._runlog.enabled:
            return
        self._runlog.write({
            "kind": "run", "ts": round(time.time(), 3), "key": key,
            "app": app, "config": config.name,
            "config_digest": config.cache_key(), "scale": self.scale,
            "seed": self.seed, "pid": os.getpid(), "cache": cache,
            "backend": self.backend_label,
            "trace_load_s": round(trace_load_s, 6),
            "simulate_s": round(simulate_s, 6),
            "store_s": round(store_s, 6)})

    def _log_retry(self, key: str, app: str, reason: str) -> None:
        """Append one ``retry`` record (no-op when logging is disabled)."""
        if not self._runlog.enabled:
            return
        self._runlog.write({
            "kind": "retry", "ts": round(time.time(), 3), "key": key,
            "app": app, "reason": reason, "pid": os.getpid()})

    def _log_task_failed(self, key: str, app: str, reason: str) -> None:
        """Append one ``task-failed`` record and bump its metric."""
        self.metrics.inc("runner.task_failures")
        if not self._runlog.enabled:
            return
        self._runlog.write({
            "kind": "task-failed", "ts": round(time.time(), 3), "key": key,
            "app": app, "reason": reason, "pid": os.getpid()})

    def run(self, app: str, config: SimConfig) -> SimResult:
        """Run (or fetch from cache) one simulation."""
        key = self._key(app, config)
        cached = self._fetch_cached(key, app, config)
        if cached is not None:
            return cached
        self.metrics.inc("cache.result.miss")
        result = self._simulate(app, config)
        trace_load_s, simulate_s = self._timings
        t0 = time.perf_counter()
        self._store(key, result)
        store_s = time.perf_counter() - t0
        self._log_run(key, app, config, "simulated",
                      trace_load_s, simulate_s, store_s)
        return result

    def _simulate(self, app: str, config: SimConfig) -> SimResult:
        t0 = time.perf_counter()
        trace = self.trace(app)
        t1 = time.perf_counter()
        result = Simulator(trace, config).run()
        # name the result after the preset for readable reports
        result.config = config.name
        self._timings = (t1 - t0, time.perf_counter() - t1)
        return result

    # -- process fan-out -------------------------------------------------------

    def _pool_cls(self):
        """The executor class for worker processes — resolved from the
        module global at call time, so tests (and restricted platforms)
        can swap it for the whole harness in one place."""
        return ProcessPoolExecutor

    def _worker_entry(self):
        """The picklable worker-process entry point, late-bound from the
        module global likewise."""
        return _run_in_worker

    # -- fan-out accounting (run_pool calls back into these) -------------------

    def _note_timeout(self, key: str, app: str) -> None:
        """One straggler exceeded ``task_timeout`` — measured from its
        start, never from submission — and was abandoned; the serial
        ladder re-runs it."""
        self._pool_failures[key] = f"timeout after {self.task_timeout}s"
        self.retries += 1
        self.metrics.inc("runner.task_timeouts")
        self._log_retry(key, app, "timeout")

    def _note_pool_break(self, key: str, app: str, fresh: bool) -> None:
        """A future failed because its pool broke. ``fresh`` marks the
        first observation of the break — that one is the worker death;
        the flood of sibling failures that follows is requeued work,
        not further deaths."""
        if fresh:
            self._pool_failures[key] = "worker died"
            self.retries += 1
            self.metrics.inc("runner.worker_deaths")
            self._log_retry(key, app, "worker-died")
        else:
            self._note_requeued(key, app)

    def _note_requeued(self, key: str, app: str) -> None:
        """A task lost its executor through no fault of its own (pool
        break survivor, queue wedged behind abandoned stragglers): it
        completes serially instead."""
        self.retries += 1
        self.metrics.inc("runner.tasks_requeued")
        self._log_retry(key, app, "requeued")

    def _note_error(self, key: str, app: str, exc: Exception) -> None:
        """A task raised ``exc`` — in its worker or on the ladder's inline
        path — a genuine simulation error, not an executor casualty. The
        serial ladder, which owns the attempt budget, retries it and (if
        it keeps failing) marks it failed instead of the one exception
        crashing the whole batch."""
        self._pool_failures[key] = f"{type(exc).__name__}: {exc}"
        self.metrics.inc("runner.task_errors")
        self._log_retry(key, app, "error")

    def _note_queue_wait(self, key: str, app: str,
                         seconds: float) -> None:
        """How long a task sat queued behind busy workers before it
        started — observability only (``backend.queue_wait_s``), never
        charged against the task's deadline."""
        self.metrics.observe("backend.queue_wait_s", seconds)

    # -- grid batches ---------------------------------------------------------

    def run_many(self, pairs: Iterable[tuple[str, SimConfig]],
                 label: str | None = None) -> list[SimResult]:
        """Run every (app, config) pair; with ``self.jobs`` above 1, or a
        ``task_timeout`` set, the first tries of the uncached ones go
        through one process pool of ``min(jobs, uncached)`` workers
        (:func:`run_pool`).

        Results come back in ``pairs`` order — always one per pair, even
        when a worker dies or times out mid-batch (its tasks are
        completed serially in the parent, timeout-bounded, with retries
        and exponential backoff) — and are bit-identical at every worker
        count: each simulation is a pure function of its key, and
        workers share the parent's on-disk caches via atomic writes. If
        the platform cannot spawn worker processes (restricted
        sandboxes), the batch silently degrades to serial execution.

        The batch's tasks are recorded in a grid manifest under
        ``<cache>/manifests/``, written when the batch starts and again
        when it ends, so an interrupted campaign keeps an incomplete
        manifest and resumes via :meth:`resume_grid`. A task that
        exhausts ``max_attempts`` is marked failed with its reason
        instead of blocking the rest; when any task failed,
        :class:`GridTaskError` is raised after the whole batch has been
        processed.
        """
        pairs = list(pairs)
        results: dict[str, SimResult] = {}
        unique: list[tuple[str, str, SimConfig]] = []
        seen: set[str] = set()
        for app, config in pairs:
            key = self._key(app, config)
            if key in seen:
                continue
            seen.add(key)
            unique.append((key, app, config))
        for key, app, config in unique:
            cached = self._fetch_cached(key, app, config)
            if cached is not None:
                results[key] = cached
        todo = [entry for entry in unique if entry[0] not in results]
        manifest = self._start_manifest(unique, results, label)
        progress = ProgressLine(len(unique), label="sims")
        progress.advance(len(results), note="cached")
        missing = todo
        self._pool_failures = {}
        if todo and (self.jobs > 1 or self.task_timeout is not None):
            # a timeout needs a worker process even at jobs=1 (a hung
            # simulation cannot be interrupted in-process): one pool
            # takes every first try. Above jobs=1, record the traces
            # first so workers load instead of each generating the same
            # apps; a lone worker records each trace once itself
            if self.use_disk_cache and self.jobs > 1:
                for app in {app for _, app, _ in todo}:
                    self.trace(app)
            missing = run_pool(self, todo, results, progress)
        plan = get_fault_plan()
        failures: list[tuple[str, str, str]] = []
        try:
            for key, app, config in missing:
                if plan.active:
                    plan.maybe_interrupt(f"grid:{key}")
                result, reason = self._complete_serially(
                    key, app, config,
                    pool_failure=self._pool_failures.pop(key, None))
                if result is not None:
                    results[key] = result
                    progress.advance(note=app)
                else:
                    failures.append((key, app, reason))
                    self._log_task_failed(key, app, reason)
                    progress.advance(note=f"{app} failed")
        finally:
            progress.close()
        if manifest is not None and self.cache_writes_enabled:
            manifest.finish({key: reason for key, _, reason in failures})
        if failures:
            raise GridTaskError(failures)
        out = [results[self._key(app, config)] for app, config in pairs]
        assert len(out) == len(pairs)
        return out

    def _start_manifest(self, unique, results,
                        label) -> GridManifest | None:
        """Write the batch's start manifest (cached tasks done), or
        return None when the disk cache is off or the manifest cannot be
        written."""
        if not self.use_disk_cache or not self.cache_writes_enabled \
                or not unique:
            return None
        tasks = [{"key": key, "app": app, "config_name": config.name,
                  "config_digest": config.cache_key(),
                  "config": config_to_dict(config)}
                 for key, app, config in unique]
        try:
            return GridManifest.start(
                self.manifest_dir, tasks, scale=self.scale,
                seed=self.seed, label=label, done=results.keys())
        except OSError:
            return None  # read-only cache: the campaign isn't resumable

    def _complete_serially(self, key: str, app: str, config: SimConfig,
                           pool_failure: str | None = None
                           ) -> tuple[SimResult | None, str | None]:
        """Finish one task in the parent with attempt accounting and
        exponential backoff: ``(result, None)`` on success, else
        ``(None, reason)`` once :attr:`max_attempts` is exhausted —
        a hung or crashing task is marked failed, never left blocking
        the rest of the grid.

        With a ``task_timeout`` each try is a one-task :func:`run_pool`
        batch, since a hung simulation cannot be interrupted in-process;
        without one, or where no pool can be created, it runs inline.
        Either way the ``_note_*`` callbacks classify a lost try and
        record its reason in ``_pool_failures``, which the ladder reads.

        ``pool_failure`` is why a worker's try at the task failed. That
        try was attempt 1 and counts against :attr:`max_attempts`, so the
        ladder resumes at attempt 2 (and a fault token is never reused).
        """
        first = 1 if pool_failure is None else 2
        reason = pool_failure or "unknown"
        for attempt in range(first, self.max_attempts + 1):
            if attempt > 1:
                # full-jitter exponential backoff, seeded by the task key
                # so a replayed campaign schedules identically while
                # simultaneous retries spread out instead of herding
                delay = jittered_backoff(self.retry_backoff, attempt,
                                         key, cap=MAX_BACKOFF_SECONDS)
                if delay > 0:
                    time.sleep(delay)
            done: dict[str, SimResult] = {}
            if self.task_timeout is not None:
                run_pool(self, [(key, app, config)], done,
                         ProgressLine(0, enabled=False), attempt=attempt)
            if key not in done and key not in self._pool_failures:
                try:  # untimed, or no pool could be created
                    done[key] = self.run(app, config)
                except Exception as exc:  # noqa: BLE001 — reported, not lost
                    self._note_error(key, app, exc)
            if key in done:
                return done[key], None
            reason = self._pool_failures.pop(key)
        return None, f"{reason} (after {self.max_attempts} attempts)"

    def grid(self, configs: Iterable[SimConfig],
             apps: Iterable[str] = APP_NAMES,
             label: str | None = None) -> dict[str, dict[str, SimResult]]:
        """Run a full (config × app) grid as one :meth:`run_many` batch
        (``label`` names its manifest): ``{config.name: {app: result}}``,
        in ``configs`` order."""
        configs = list(configs)
        apps = list(apps)
        it = iter(self.run_many(
            [(app, config) for config in configs for app in apps],
            label=label))
        return {config.name: {app: next(it) for app in apps}
                for config in configs}

    def resume_grid(self) -> tuple[GridManifest, list[SimResult]] | None:
        """Resume the most recent incomplete campaign in this cache.

        Loads the newest unfinished grid manifest, rebuilds the (app,
        config) pairs from the recorded configurations — they round-trip
        through :func:`repro.resilience.config_from_dict`, so resumed
        tasks hit the same cache keys — and re-runs the grid as a new
        batch: every task that finished is a cache hit, and the rest
        (failed ones included) get a fresh attempt budget. Returns the
        refreshed manifest and the full, ordered result list, or
        ``None`` when no incomplete campaign exists. A manifest recorded
        at a different scale/seed is resumed at *its* scale/seed, not
        this runner's, with every other setting of this runner.
        """
        manifest = GridManifest.latest_incomplete(self.manifest_dir)
        if manifest is None:
            return None
        runner = self
        if (self.scale, self.seed) != (manifest.scale, manifest.seed):
            runner = ExperimentRunner(
                cache_dir=self.cache_dir, scale=manifest.scale,
                seed=manifest.seed, use_disk_cache=self.use_disk_cache,
                jobs=self.jobs,
                # 0, not None: None would fall back to REPRO_TASK_TIMEOUT
                task_timeout=self.task_timeout or 0,
                log_dir=self._runlog.log_dir if self._runlog.enabled
                else None,
                max_attempts=self.max_attempts,
                retry_backoff=self.retry_backoff,
                min_disk_mb=self.min_disk_mb)
        pairs = [(task["app"], config_from_dict(task["config"]))
                 for task in manifest.tasks_in_order()]
        results = runner.run_many(pairs, label=manifest.label)
        return GridManifest.load(manifest.path), results

    def clear_cache(self) -> None:
        """Drop the in-memory caches and delete this runner's disk cache
        (manifests included; quarantined artifacts are kept — they are
        the forensic record of past corruption)."""
        self._memory.clear()
        self._traces.clear()
        if self.cache_dir.exists():
            for path in self.cache_dir.glob("*.json"):
                path.unlink()
            for path in self.cache_dir.glob("traces/*.espt"):
                path.unlink()
            for path in self.cache_dir.glob("manifests/grid-*.json"):
                path.unlink()
