"""Observability for the reproduction: run logs, progress, stats.

The JSONL run log is the one channel through which a run accounts for
itself; every process that simulates, parent or pool worker, appends to
the same log:

* :mod:`repro.obs.runlog` — structured JSONL run logs, one record per
  simulation request, retry, failed task and quarantined artifact;
* :mod:`repro.obs.progress` — a tqdm-free stderr progress line for grid
  fan-outs;
* :mod:`repro.obs.stats` — aggregation of the JSONL logs into the
  ``repro stats`` report.
"""

from repro.obs.progress import ProgressLine
from repro.obs.runlog import (
    RUNLOG_SCHEMA,
    RunLogWriter,
    default_log_dir,
    iter_records,
)
from repro.obs.stats import format_table, summarize

__all__ = [
    "ProgressLine",
    "RUNLOG_SCHEMA",
    "RunLogWriter",
    "default_log_dir",
    "format_table",
    "iter_records",
    "summarize",
]
