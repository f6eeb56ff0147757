"""Structured JSONL run logs for the experiment harness.

One record per simulation (plus one per worker retry) is appended to
``runs.jsonl`` in the log directory — the runner's ``log_dir`` argument
or ``REPRO_LOG_DIR``; ``repro stats`` reads ``REPRO_LOG_DIR``, else
``<cache-dir>/logs``. Each line is a self-contained JSON
object, so the log survives concurrent writers (parent and worker
processes append whole lines with ``O_APPEND``) and partial/corrupt lines
are simply skipped on read. ``repro stats`` aggregates these logs into
cache-hit rates, per-app wall-clock and retry counts.

Record kinds (``kind`` field):

* ``run`` — one simulation request: cache key, app, config name + digest,
  scale, seed, worker pid, cache disposition (``memory`` / ``disk`` /
  ``simulated``), the execution backend context that served it
  (``serial`` parent / ``process`` worker), and the
  trace-load / simulate / store timings in seconds.
* ``retry`` — one task handed back for serial completion, with the reason
  (``worker-died`` / ``timeout`` / ``memory`` / ``error`` — a failed
  attempt that will be re-tried — or ``requeued``, a healthy task that
  lost its executor to a sibling's pool break or a wedged queue).
* ``corrupt`` — an on-disk artifact (``trace`` / ``result`` / ``manifest``)
  failed its integrity check and was quarantined: artifact kind, original
  filename, quarantine filename (None when the move failed), and the cache
  key / app when known.
* ``task-failed`` — a grid task that exhausted its attempt budget and was
  marked failed in the grid manifest, with its final reason.

Logs written before the backend picker was removed may also hold
``backend-choice`` and ``fanout-disabled`` records; readers skip them.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator

#: bump when the record layout changes incompatibly
RUNLOG_SCHEMA = 1

_LOG_DIR_ENV = "REPRO_LOG_DIR"


def default_log_dir(cache_dir: Path | str) -> Path:
    """The log directory: ``REPRO_LOG_DIR`` or ``<cache_dir>/logs``."""
    env = os.environ.get(_LOG_DIR_ENV)
    if env:
        return Path(env)
    return Path(cache_dir) / "logs"


class RunLogWriter:
    """Appends JSONL records; a ``None`` directory disables the writer.

    Writes are whole-line ``O_APPEND`` appends, so records from concurrent
    processes interleave without tearing. An unwritable directory silently
    disables the writer — logging must never fail a simulation.
    """

    def __init__(self, log_dir: Path | str | None) -> None:
        self.log_dir = Path(log_dir) if log_dir is not None else None
        self._failed = False

    @property
    def enabled(self) -> bool:
        """Whether records will actually be written."""
        return self.log_dir is not None and not self._failed

    @property
    def path(self) -> Path | None:
        """The JSONL file records land in (None when disabled)."""
        if self.log_dir is None:
            return None
        return self.log_dir / "runs.jsonl"

    def write(self, record: dict) -> None:
        """Append one record (tagged with the schema version)."""
        if not self.enabled:
            return
        line = json.dumps({"schema": RUNLOG_SCHEMA, **record},
                          separators=(",", ":")) + "\n"
        try:
            self.log_dir.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                         0o644)
            try:
                os.write(fd, line.encode())
            finally:
                os.close(fd)
        except OSError:
            self._failed = True


def iter_records(log_dir: Path | str) -> Iterator[dict]:
    """Yield every parseable record from the ``*.jsonl`` files in
    ``log_dir`` (missing directory yields nothing; corrupt lines and
    non-object lines are skipped)."""
    log_dir = Path(log_dir)
    if not log_dir.is_dir():
        return
    for path in sorted(log_dir.glob("*.jsonl")):
        try:
            text = path.read_text()
        except OSError:
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                yield record
