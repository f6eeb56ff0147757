"""Worker memory guard.

A long campaign must not be taken down by one worker that outgrows the
machine. :func:`apply_memory_limit` installs a best-effort address-space
rlimit in a pool worker, and :func:`check_memory` runs at every event
boundary and raises :class:`MemoryPressure` once peak RSS crosses the
configured ceiling (``REPRO_MEM_LIMIT_MB``). That converts a would-be OOM
kill into an orderly retry of the task at reduced fan-out.
"""

from __future__ import annotations

import sys


class MemoryPressure(MemoryError):
    """The worker's peak RSS crossed the configured ceiling. Subclasses
    :class:`MemoryError` (and lives at module level, so it pickles across
    the process-pool boundary) — the runner treats it like the OOM kill
    it preempts and re-runs the task at reduced fan-out."""


def rss_bytes() -> int | None:
    """This process's peak resident set size in bytes, or None when the
    platform offers no ``resource`` module."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes
    return peak * 1024 if sys.platform.startswith("linux") else peak


def apply_memory_limit(limit_mb: int) -> bool:
    """Best-effort address-space rlimit on the calling process. Returns
    whether a limit was installed; platforms without
    ``resource``/``RLIMIT_AS`` simply skip it (the periodic
    :func:`check_memory` still guards them).

    The rlimit is set at 4× the RSS ceiling: address space runs well
    ahead of resident memory, so the rlimit is only the hard backstop
    against runaway allocation — the graceful path is
    :func:`check_memory` raising :class:`MemoryPressure` at an event
    boundary.
    """
    if limit_mb <= 0:
        return False
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return False
    try:
        _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        limit = limit_mb * 4 * 1024 * 1024
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
        return True
    except (AttributeError, ValueError, OSError):
        return False


def check_memory(limit_mb: int) -> None:
    """Raise :class:`MemoryPressure` when peak RSS exceeds ``limit_mb``
    megabytes; a no-op when unmeasurable or ``limit_mb`` is 0."""
    if limit_mb <= 0:
        return
    rss = rss_bytes()
    if rss is not None and rss > limit_mb * 1024 * 1024:
        raise MemoryPressure(
            f"worker peak RSS {rss // (1024 * 1024)} MiB exceeds the "
            f"{limit_mb} MiB ceiling")
