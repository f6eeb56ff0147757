"""Grid fan-out for the experiment harness.

``ExperimentRunner.run_many`` hands a batch of uncached tasks to
:func:`~repro.exec.process.run_pool` when its worker count
(``REPRO_JOBS`` / ``jobs=`` / ``--jobs``) is above 1; at the default of
1 every task runs in-process through the runner's serial retry ladder,
which paces its retries with :func:`~repro.exec.backoff.jittered_backoff`.
With a task timeout set, each of the ladder's tries is a one-task
``run_pool`` batch too, so ``run_pool`` is the only place a task runs in
a worker process.
"""

from repro.exec.backoff import jittered_backoff
from repro.exec.process import run_pool

__all__ = ["jittered_backoff", "run_pool"]
