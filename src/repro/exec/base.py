"""The execution-backend interface and the in-process serial backend.

An :class:`ExecutionBackend` owns how one ``run_many`` batch of uncached
(key, app, config) tasks is executed: submission to workers, per-task
deadline accounting (measured from when a task *starts*, never from when
it was queued), straggler cancellation, and handing unfinished tasks back
to the runner's serial retry ladder. The runner keeps the grid logic —
dedup, cache lookups, manifests, attempt budgets — and delegates the
fan-out itself, so every backend shares one recovery path instead of
re-implementing three.

Two implementations exist, plus a picker:

* ``serial`` (:class:`SerialBackend`, here) — no fan-out at all; every
  task flows through the runner's in-process completion ladder with zero
  submission overhead.
* ``process`` (:mod:`repro.exec.process`) — worker processes with the
  broken-pool / timeout / memory-pressure recovery ladder.
* ``auto`` (:mod:`repro.exec.auto`) — not a backend class but a picker:
  measures the machine's shape and resolves to ``serial`` or
  ``process``.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.obs.progress import ProgressLine
    from repro.sim.experiments import ExperimentRunner

#: the valid ``REPRO_BACKEND`` values (``auto`` resolves to a local one)
BACKEND_NAMES = ("serial", "process", "auto")

#: how often the parallel backends poll pending futures for task starts
#: and expired deadlines (seconds); small enough that a deadline is
#: enforced within ~poll of expiry, large enough to stay off the hot path
DEADLINE_POLL_S = 0.05

#: the pending-future wait chunk when no deadline needs enforcing
IDLE_POLL_S = 0.25


def jittered_backoff(base: float, attempt: int, token: str,
                     cap: float = 30.0) -> float:
    """Full-jitter exponential backoff: a delay drawn uniformly from
    ``[0, min(base * 2**(attempt-2), cap))``.

    Simultaneous retries (grid tasks re-armed after a pool break) must
    not thundering-herd the filesystem cache, so the classic
    deterministic doubling becomes the *ceiling* and the actual delay is
    a uniform draw under it — AWS-style "full jitter". The draw is a pure
    function of ``(token, attempt)`` (no process RNG, no wall clock), so
    a replayed campaign schedules its retries identically.

    ``attempt`` follows the runner's attempt numbering: the first retry
    is attempt 2 and gets a ceiling of ``base``; each further attempt
    doubles it up to ``cap``. A non-positive ``base`` disables backoff.
    """
    if base <= 0.0:
        return 0.0
    ceiling = min(base * 2 ** max(0, attempt - 2), cap)
    digest = hashlib.sha256(f"backoff|{token}|{attempt}".encode()).digest()
    fraction = int.from_bytes(digest[:8], "big") / 2 ** 64
    return ceiling * fraction


class ExecutionBackend:
    """How one batch of uncached grid tasks is executed.

    Stateless across batches: one instance serves every ``run_many`` call
    of a runner. ``run_batch`` fills ``results`` with whatever completed
    and returns the tasks that did not — the runner finishes those through
    its serial attempt ladder (bounded retries, backoff, failure marking),
    which is the single retry hand-back path shared by all backends.
    """

    #: the resolved backend name (``serial`` / ``process``)
    name = "backend"

    #: whether ``run_many`` should route batches through :meth:`run_batch`
    #: (False means every task goes straight to the serial ladder)
    parallel = False

    def run_batch(self, runner: "ExperimentRunner",
                  todo: list[tuple[str, str, object]],
                  results: dict, progress: "ProgressLine"
                  ) -> list[tuple[str, str, object]]:
        """Execute ``todo`` (``(key, app, config)`` triples), filling
        ``results[key]`` with :class:`~repro.sim.results.SimResult`
        objects; return the entries needing the serial retry ladder."""
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """In-process execution: zero submission overhead, no parallelism.

    ``parallel`` is False, so the runner never even calls
    :meth:`run_batch` — the whole batch flows through the completion
    ladder exactly as a ``jobs=1`` runner always has. The method still
    honours the interface (identity) for callers driving a backend
    directly.
    """

    name = "serial"
    parallel = False

    def run_batch(self, runner, todo, results, progress):
        return list(todo)
