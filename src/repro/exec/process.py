"""Process-pool fan-out of one ``run_many`` batch, with its recovery ladder.

:func:`run_pool` submits a batch of uncached tasks to worker processes
and hands back whatever did not finish — worker death
(``BrokenProcessPool``), per-task timeout, a task's own error — to the
runner's serial retry ladder. It is the only way a task runs in a worker
process: the ladder's timed tries are one-task batches through it too,
so every lost try is classified once, by the runner's ``_note_*``
callbacks. Two scheduling rules keep that accounting honest:

* **Deadlines start when the task starts, not when it was queued.**
  Pending futures are polled, each is stamped the first time it is
  observed running, and the deadline is measured from that stamp, so
  queue wait is never charged against the task.
* **One pool break is one worker death.** Once a pool breaks, *every*
  remaining future raises ``BrokenProcessPool``; the first break counts
  the death and the surviving tasks are handed back as ``requeued``.

Workers are trace-resident: the pool initializer builds one runner per
worker process, which every task of the batch reuses, so a worker loads
each app's trace and code image at most once. Under ``fork`` it starts
from the parent's loaded traces, inherited in memory rather than
pickled, and loads only those the parent does not hold. Tasks are
submitted app-major, largest app first, so a worker's consecutive tasks
share an app and the longest tasks do not start last. Pools start their
workers with ``fork`` where the platform offers it (:data:`MP_CONTEXT`):
it is no slower than ``forkserver`` or ``spawn`` for these pools, and it
is the one start method that leaves no helper process (a fork server, a
resource tracker) running after the batch.

Stragglers are cancelled (queued tasks) or abandoned (running tasks —
the pool is shut down without waiting for them) and handed back to the
runner's serial retry ladder. If every worker is wedged behind abandoned
stragglers, tasks that cannot even *start* within one further
``task_timeout`` of the last observed progress are handed back too, so a
fully-hung pool degrades to the serial path instead of stalling the
batch forever. Where no pool can be created at all, the whole batch is
handed back.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool

from repro.sim.results import SimResult

#: how often pending futures are polled for task starts and expired
#: deadlines (seconds); small enough that a deadline is enforced within
#: ~poll of expiry, large enough to stay off the hot path
DEADLINE_POLL_S = 0.05

#: the pending-future wait chunk when no deadline needs enforcing
IDLE_POLL_S = 0.25

#: the start method of every pool: ``fork`` where offered, else the
#: platform default (pinned, since CPython 3.14 moves Linux to
#: ``forkserver``)
MP_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None)
#: whether workers inherit the parent's memory (and so its traces)
FORK = MP_CONTEXT.get_start_method() == "fork"


def run_pool(runner, todo, results, progress, width=1, sizes=None,
             attempt=1):
    """Run ``todo`` (``(key, app, config)`` triples) over
    ``min(width, len(todo))`` worker processes, filling ``results[key]``
    with :class:`~repro.sim.results.SimResult` objects; return the
    entries the runner's serial retry ladder must finish, in ``todo``
    order. ``sizes`` (app -> estimated instructions) orders submission
    app-major, largest app first. ``attempt`` numbers the tries in
    fault-injection tokens: a batch's pool try is attempt 1, a serial
    retry passes its own number."""
    max_workers = min(width, len(todo))
    worker_log_dir = str(runner._runlog.log_dir) \
        if runner._runlog.enabled else None
    settings = (runner.scale, runner.seed, str(runner.cache_dir),
                runner.use_disk_cache, worker_log_dir)
    try:
        pool = runner._pool_cls()(
            max_workers=max_workers, mp_context=MP_CONTEXT,
            initializer=runner._worker_init(),
            initargs=settings + (dict(runner._traces) if FORK else None,))
    except (OSError, PermissionError, ValueError):
        return list(todo)  # restricted sandbox: serial fallback
    entry = runner._worker_entry()
    wait_on_exit = True
    pool_broken = False
    try:
        order = todo if not sizes else sorted(
            todo, key=lambda task: (-sizes.get(task[1], 0), task[1]))
        meta: dict = {}       # future -> (submit index, key, app)
        started: dict = {}    # future -> monotonic first-running stamp
        pending = set()
        for index, (key, app, config) in enumerate(order):
            future = pool.submit(entry, app, config, *settings,
                                 attempt=attempt)
            meta[future] = (index, key, app)
            pending.add(future)
        poll = DEADLINE_POLL_S if runner.task_timeout is not None \
            else IDLE_POLL_S
        last_progress = time.monotonic()
        # workers actually executing a stamped task right now. The
        # executor flags a future "running" as soon as it enters the
        # inter-process call queue — max_workers + 1 deep — which is
        # NOT the task starting: stamping on that flag alone would
        # start the deadline clock on a task still queued behind a
        # busy worker, the exact bug the start stamps exist to fix. So
        # stamps are additionally gated on a worker being free, in
        # submission order (the order workers drain the queue).
        busy_workers = 0
        while pending:
            done, pending = wait(pending, timeout=poll,
                                 return_when=FIRST_COMPLETED)
            now = time.monotonic()
            if done:
                last_progress = now
            for future in sorted(done, key=lambda f: meta[f][0]):
                _, key, app = meta[future]
                if future in started:
                    busy_workers -= 1
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    # one break floods every remaining future with
                    # this exception: the first one is the death,
                    # the rest are survivors handed back for re-run
                    runner._note_pool_break(key, app,
                                            fresh=not pool_broken)
                    pool_broken = True
                    continue
                except Exception as exc:  # noqa: BLE001 — ladder re-raises
                    # a genuine error inside the task (a MemoryError
                    # included): hand it to the serial ladder, which
                    # owns the attempt budget and the failure
                    # bookkeeping, instead of one bad task crashing the
                    # whole batch
                    runner._note_error(key, app, exc)
                    continue
                result = SimResult.from_dict(payload)
                runner._memory[key] = result
                results[key] = result
                progress.advance(note=app)
            if pool_broken:
                # a broken pool cannot run what is left: hand any
                # future that had not settled yet back as requeued
                for future in pending:
                    future.cancel()
                    _, key, app = meta[future]
                    runner._note_requeued(key, app)
                break
            for future in sorted(pending, key=lambda f: meta[f][0]):
                if busy_workers >= max_workers:
                    break  # every worker is accounted for
                if future not in started and future.running():
                    started[future] = now
                    busy_workers += 1
                    last_progress = now
            if runner.task_timeout is None:
                continue
            for future in list(pending):
                start = started.get(future)
                if start is not None \
                        and now - start > runner.task_timeout:
                    # the straggler keeps its core — its worker stays
                    # busy (busy_workers is not given back), don't
                    # wait for it on shutdown, re-run the task serially
                    pending.discard(future)
                    future.cancel()
                    wait_on_exit = False
                    _, key, app = meta[future]
                    runner._note_timeout(key, app)
            if not wait_on_exit \
                    and now - last_progress > runner.task_timeout:
                # every worker is wedged behind an abandoned
                # straggler: tasks that cannot even start get handed
                # back rather than waiting on a dead pool
                for future in list(pending):
                    if future not in started:
                        pending.discard(future)
                        future.cancel()
                        _, key, app = meta[future]
                        runner._note_requeued(key, app)
    finally:
        pool.shutdown(wait=wait_on_exit, cancel_futures=True)
    return [entry for entry in todo if entry[0] not in results]
