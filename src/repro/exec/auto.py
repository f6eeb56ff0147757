"""Machine-shape measurement for ``REPRO_BACKEND=auto``.

``auto`` is not an execution strategy of its own — it is a picker that
resolves to ``serial`` or ``process`` from what the machine actually
looks like, instead of from ``REPRO_JOBS`` guesswork. The decision is
made once per process (memoized) from:

* the affinity-aware CPU count (:func:`repro.sim.experiments.available_cpus`)
  — one usable CPU means fan-out of any kind only adds overhead, so the
  answer is ``serial`` and no probe runs at all;
* a calibration probe on multi-CPU machines: one worker-process
  round-trip — a no-op submitted to a fresh single-worker pool. Where
  processes cannot be spawned, or the round-trip exceeds the probe
  ceiling —
  :data:`ROUNDTRIP_CEILING_S`, overridable via ``REPRO_PROBE_TIMEOUT``
  for loaded CI machines that fork slowly once but run tasks fine —
  (gVisor-style sandboxes — fork costs would dwarf the tasks), the pick
  degrades to ``serial``; otherwise ``process``.

Every pick is returned as a :class:`BackendChoice` carrying its inputs,
and the runner records it as a ``backend-choice`` runlog record, so a
recorded campaign states not just which backend ran it but *why*.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

_PROBE_TIMEOUT_ENV = "REPRO_PROBE_TIMEOUT"

#: wall-clock budget for the calibration probe (seconds)
PROBE_BUDGET_S = 0.1

#: default round-trip ceiling: a worker-process no-op round-trip slower
#: than this means fork/spawn overhead would dwarf typical grid tasks,
#: so the pick degrades to serial. ``REPRO_PROBE_TIMEOUT`` overrides it
#: (seconds) — loaded CI machines fork slowly *once* while still running
#: tasks fine, and without the override they misclassify as
#: "slow workers => serial"
ROUNDTRIP_CEILING_S = 1.0

#: memoized picks per (CPU count, probe ceiling) — machine shape does
#: not change within a process, so one probe serves every runner (tests
#: clear this; the ceiling is in the key so a changed
#: ``REPRO_PROBE_TIMEOUT`` re-probes instead of replaying a stale pick)
_choice_cache: dict = {}


def probe_ceiling_s() -> float:
    """The round-trip ceiling: ``REPRO_PROBE_TIMEOUT`` seconds when set
    and positive, else :data:`ROUNDTRIP_CEILING_S` (malformed values
    degrade to the default, like every other harness knob)."""
    raw = os.environ.get(_PROBE_TIMEOUT_ENV)
    if raw is None or not raw.strip():
        return ROUNDTRIP_CEILING_S
    try:
        value = float(raw)
    except ValueError:
        return ROUNDTRIP_CEILING_S
    return value if value > 0 else ROUNDTRIP_CEILING_S


@dataclass(frozen=True)
class BackendChoice:
    """One auto-pick: the resolved backend and the inputs that drove it."""

    backend: str
    cpus: int
    process_roundtrip_s: float | None
    reason: str

    def to_record(self) -> dict:
        """The runlog payload for a ``backend-choice`` record."""
        return {
            "backend": self.backend, "cpus": self.cpus,
            "process_roundtrip_s": None if self.process_roundtrip_s is None
            else round(self.process_roundtrip_s, 4),
            "reason": self.reason,
        }


def _probe_noop() -> None:
    """Worker-side probe payload (module-level so it pickles)."""
    return None


def _process_roundtrip(pool_cls, budget_s: float = PROBE_BUDGET_S,
                       ceiling_s: float = ROUNDTRIP_CEILING_S
                       ) -> float | None:
    """Wall seconds for one no-op worker round-trip on a fresh
    single-worker pool, or ``None`` when processes are unusable here
    (cannot spawn, or the probe itself fails)."""
    start = time.perf_counter()
    try:
        pool = pool_cls(max_workers=1)
    except (OSError, PermissionError, ValueError):
        return None
    try:
        # the budget bounds how long we *wait*, not how long the fork
        # takes: a round-trip that blows far past it is itself the
        # signal, capped so the probe cannot hang the batch
        pool.submit(_probe_noop).result(
            timeout=max(budget_s * 10, ceiling_s * 2))
        return time.perf_counter() - start
    except Exception:  # noqa: BLE001 — any probe failure means "unusable"
        return None
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def auto_pick(pool_cls=None, cpus: int | None = None) -> BackendChoice:
    """Resolve ``auto`` to a concrete backend for this machine.

    ``pool_cls`` is the executor class the process backend would use
    (defaults to — and late-binds for the tests that monkeypatch it —
    ``repro.sim.experiments.ProcessPoolExecutor``); ``cpus`` overrides
    the affinity-aware count. Memoized per (CPU count, probe ceiling).
    """
    from repro.sim import experiments  # runtime import: cycle guard

    if cpus is None:
        cpus = experiments.available_cpus()
    ceiling = probe_ceiling_s()
    cached = _choice_cache.get((cpus, ceiling))
    if cached is not None:
        return cached
    if pool_cls is None:
        pool_cls = experiments.ProcessPoolExecutor
    if cpus <= 1:
        # never processes on a single-CPU machine — and no probe either:
        # there is nothing a measurement could change
        choice = BackendChoice(
            "serial", cpus, None,
            "single usable CPU: any fan-out only adds overhead")
    else:
        roundtrip = _process_roundtrip(pool_cls, ceiling_s=ceiling)
        if roundtrip is None:
            choice = BackendChoice(
                "serial", cpus, None,
                "worker processes unavailable: in-process is the only "
                "execution that works here")
        elif roundtrip > ceiling:
            choice = BackendChoice(
                "serial", cpus, roundtrip,
                f"worker round-trip {roundtrip:.2f}s exceeds "
                f"{ceiling:.1f}s: process start-up would "
                "dwarf the tasks")
        else:
            choice = BackendChoice(
                "process", cpus, roundtrip,
                f"{cpus} usable CPUs and a {roundtrip * 1000:.0f}ms "
                "worker round-trip: real parallelism pays")
    _choice_cache[(cpus, ceiling)] = choice
    return choice
