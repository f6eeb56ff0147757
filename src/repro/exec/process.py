"""Process-pool execution backend.

The historical ``run_many`` fan-out path, with its recovery ladder —
worker death (``BrokenProcessPool``), per-task timeout, memory pressure —
moved behind the :class:`~repro.exec.base.ExecutionBackend` interface and
with two scheduler bugs fixed:

* **Deadlines start when the task starts, not when it was queued.** The
  old path called ``future.result(timeout=task_timeout)`` in submission
  order, so a task queued behind ``jobs`` slower siblings burned its
  whole budget waiting for a worker and timed out spuriously. This
  backend polls pending futures, stamps each one the first time it is
  observed running, and only measures the deadline from that stamp; the
  queue wait is reported to the ``backend.queue_wait_s`` metric instead
  of being charged against the task.
* **One pool break is one worker death.** Once a pool breaks, *every*
  remaining future raises ``BrokenProcessPool``; the old path bumped
  ``runner.worker_deaths`` for each, so one dead worker reported as N
  deaths. The first break now counts the death; the surviving tasks are
  handed back as ``requeued``.

Stragglers are cancelled (queued tasks) or abandoned (running tasks —
the pool is shut down without waiting for them) and handed back to the
runner's serial retry ladder. If every worker is wedged behind abandoned
stragglers, tasks that cannot even *start* within one further
``task_timeout`` of the last observed progress are handed back too, so a
fully-hung pool degrades to the serial path instead of stalling the
batch forever.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool

from repro.exec.base import DEADLINE_POLL_S, IDLE_POLL_S, ExecutionBackend
from repro.sim.results import SimResult


class ProcessBackend(ExecutionBackend):
    """Fan one batch out over worker processes."""

    name = "process"
    parallel = True

    def run_batch(self, runner, todo, results, progress):
        max_workers = runner._fanout_workers(len(todo))
        try:
            pool = runner._pool_cls()(max_workers=max_workers)
        except (OSError, PermissionError, ValueError):
            return list(todo)  # restricted sandbox: serial fallback
        entry = runner._worker_entry()
        wait_on_exit = True
        pool_broken = False
        try:
            worker_log_dir = str(runner._runlog.log_dir) \
                if runner._runlog.enabled else None
            meta: dict = {}       # future -> (submit index, key, app)
            submitted: dict = {}  # future -> monotonic submission stamp
            started: dict = {}    # future -> monotonic first-running stamp
            pending = set()
            for index, (key, app, config) in enumerate(todo):
                future = pool.submit(
                    entry, app, config, runner.scale, runner.seed,
                    str(runner.cache_dir), runner.use_disk_cache,
                    worker_log_dir, mem_limit_mb=runner.mem_limit_mb)
                meta[future] = (index, key, app)
                submitted[future] = time.monotonic()
                pending.add(future)
            poll = DEADLINE_POLL_S if runner.task_timeout is not None \
                else IDLE_POLL_S
            last_progress = time.monotonic()
            # workers actually executing a stamped task right now. The
            # executor flags a future "running" as soon as it enters the
            # inter-process call queue — max_workers + 1 deep — which is
            # NOT the task starting: stamping on that flag alone would
            # start the deadline clock on a task still queued behind a
            # busy worker, the exact bug this backend exists to fix. So
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
                    except MemoryError:
                        # the worker hit its RSS ceiling and bailed at an
                        # event boundary; re-run the task at serial
                        # fan-out where the whole budget is its own
                        runner._note_memory_pressure(key, app)
                        continue
                    except Exception:  # noqa: BLE001 — ladder re-raises
                        # a genuine error inside the task: hand it to the
                        # serial ladder, which owns the attempt budget and
                        # the failure bookkeeping, instead of one bad task
                        # crashing the whole batch
                        runner._note_error(key, app)
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
                        _, key, app = meta[future]
                        runner._note_queue_wait(
                            key, app, now - submitted[future])
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
