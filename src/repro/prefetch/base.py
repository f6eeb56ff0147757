"""Common prefetcher interface."""

from __future__ import annotations

import abc


class Prefetcher(abc.ABC):
    """A demand-access-driven prefetcher.

    The simulator calls :meth:`observe` on every demand access; the
    prefetcher returns the block numbers it wants fetched. The caller decides
    how those requests are serviced (timeliness-tracked via
    :meth:`repro.memory.MemoryHierarchy.prefetch`).
    """

    @abc.abstractmethod
    def observe(self, pc: int, block: int) -> list[int]:
        """React to a demand access of ``block`` by the instruction at
        ``pc``; return blocks to prefetch (possibly empty)."""

    def reset(self) -> None:
        """Clear learned state (default: nothing to clear)."""

    def metrics_snapshot(self) -> dict[str, float]:
        """Occupancy/utilisation gauges for the metrics registry.

        Published once per run when metrics are enabled — prefetchers
        already maintain this state for prediction, so observing it costs
        the hot loop nothing. Default: no gauges.
        """
        return {}

