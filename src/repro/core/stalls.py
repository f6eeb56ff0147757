"""Exposed-stall accounting for data-side misses.

An out-of-order core hides part of a load miss behind useful work: the ROB
keeps retiring the (up to ``rob_entries``) instructions already in flight
while the miss is outstanding, hiding roughly ``rob_entries / width`` cycles.
Misses that issue close together overlap with each other (memory-level
parallelism): the classic interval-model rule is that only the first miss of
a cluster stalls the pipeline; misses issued within a ROB window of an
outstanding miss complete under its shadow.

This mirrors how SniperSim's interval core (the paper's simulator) accounts
for long-latency loads.
"""

from __future__ import annotations

from repro.sim.config import CoreConfig


class DataStallModel:
    """Tracks outstanding-miss state and returns exposed stall cycles."""

    def __init__(self, core: CoreConfig) -> None:
        self.core = core
        self._last_miss_icount = -(10 ** 9)
        self._outstanding_until = -1.0

    def reset(self) -> None:
        self._last_miss_icount = -(10 ** 9)
        self._outstanding_until = -1.0

    def exposed(self, icount: int, cycle: float, latency: float,
                llc_miss: bool) -> float:
        """Exposed stall for a data access completing ``latency`` cycles from
        ``cycle``, issued by dynamic instruction ``icount``."""
        if latency <= 0:
            return 0.0
        if llc_miss:
            in_cluster = (icount - self._last_miss_icount
                          <= self.core.rob_entries
                          and cycle < self._outstanding_until)
            self._last_miss_icount = icount
            if in_cluster:
                # overlapped with the outstanding miss: completes under its
                # shadow, only the residual beyond it is exposed
                exposed = max(0.0, (cycle + latency)
                              - self._outstanding_until
                              - self.core.rob_hide_cycles)
                self._outstanding_until = max(self._outstanding_until,
                                              cycle + latency)
                return exposed
            exposed = max(0.0, latency - self.core.rob_hide_cycles)
            self._outstanding_until = cycle + latency
            return exposed
        # L2 hits (and short prefetch residuals): the LSQ bounds the
        # latency genuinely hidden, so an L2 access keeps a small cost
        return max(0.0, latency - self.core.data_hide_cycles)
