"""Workload-statistics validation.

The synthetic workloads only stand in for the paper's Chromium traces while
their first-order statistics stay in the neighbourhood the paper reports
(Section 2's characterisation). This module measures those statistics for a
trace and checks them against per-profile expectations, so a profile edit
that silently breaks an invariant (say, collapsing the instruction
footprint below the L1-I capacity) fails loudly in the test suite instead
of quietly distorting every figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa import summarize_stream
from repro.workloads.generator import EventTrace


@dataclass
class WorkloadStats:
    """Measured first-order statistics of one trace."""

    app: str
    events: int
    total_instructions: int
    mean_event_length: float
    #: fraction of instructions that are loads/stores
    memory_fraction: float
    #: fraction of instructions that are control flow
    branch_fraction: float
    #: mean per-event instruction footprint, bytes
    mean_i_footprint: float
    #: mean per-event data footprint, bytes
    mean_d_footprint: float
    #: distinct handlers exercised
    distinct_handlers: int
    #: events whose speculative stream diverges
    diverged_events: int
    per_event_lengths: list[int] = field(default_factory=list)

    @property
    def divergence_rate(self) -> float:
        return self.diverged_events / self.events if self.events else 0.0


def measure(trace: EventTrace, max_events: int | None = None
            ) -> WorkloadStats:
    """Measure the statistics of ``trace`` (optionally a prefix)."""
    n = len(trace) if max_events is None else min(len(trace), max_events)
    total = 0
    memory = 0
    branches = 0
    i_footprint = 0
    d_footprint = 0
    diverged = 0
    handlers = set()
    lengths = []
    for k in range(n):
        event = trace.event(k)
        stats = summarize_stream(event.packed_true())
        total += stats.instructions
        lengths.append(stats.instructions)
        memory += stats.loads + stats.stores
        branches += stats.branches
        i_footprint += stats.i_footprint_bytes
        d_footprint += stats.d_footprint_bytes
        handlers.add(event.handler_fid)
        diverged += event.diverged
    return WorkloadStats(
        app=trace.profile.name,
        events=n,
        total_instructions=total,
        mean_event_length=total / n if n else 0.0,
        memory_fraction=memory / total if total else 0.0,
        branch_fraction=branches / total if total else 0.0,
        mean_i_footprint=i_footprint / n if n else 0.0,
        mean_d_footprint=d_footprint / n if n else 0.0,
        distinct_handlers=len(handlers),
        diverged_events=diverged,
        per_event_lengths=lengths,
    )


@dataclass(frozen=True)
class Expectations:
    """Acceptable ranges for the characteristics the figures depend on.

    Defaults encode the paper's Section 2 characterisation, adapted to the
    scaled traces (see DESIGN.md §3).
    """

    #: loads+stores per instruction (typical compiled code: ~0.3-0.4)
    memory_fraction: tuple[float, float] = (0.25, 0.45)
    #: control-flow instructions per instruction
    branch_fraction: tuple[float, float] = (0.06, 0.22)
    #: mean per-event instruction footprint: two consecutive events from
    #: different handlers must overwhelm the 32 KB L1-I, so each must carry
    #: a substantial fraction of it
    min_mean_i_footprint: float = 22_000.0
    #: likewise for the data side and the 32 KB L1-D
    min_mean_d_footprint: float = 24_000.0
    #: speculation accuracy: the paper measures >98 % of events matching
    max_divergence_rate: float = 0.15
    #: events must exercise several distinct handlers (locality destroyer)
    min_distinct_handlers: int = 3


def validate(stats: WorkloadStats,
             expectations: Expectations | None = None) -> list[str]:
    """Return a list of violated invariants (empty = all good)."""
    exp = expectations or Expectations()
    problems: list[str] = []
    low, high = exp.memory_fraction
    if not low <= stats.memory_fraction <= high:
        problems.append(
            f"memory fraction {stats.memory_fraction:.3f} outside "
            f"[{low}, {high}]")
    low, high = exp.branch_fraction
    if not low <= stats.branch_fraction <= high:
        problems.append(
            f"branch fraction {stats.branch_fraction:.3f} outside "
            f"[{low}, {high}]")
    if stats.mean_i_footprint < exp.min_mean_i_footprint:
        problems.append(
            f"mean I-footprint {stats.mean_i_footprint:.0f} B below "
            f"{exp.min_mean_i_footprint:.0f} B (must overwhelm L1-I)")
    if stats.mean_d_footprint < exp.min_mean_d_footprint:
        problems.append(
            f"mean D-footprint {stats.mean_d_footprint:.0f} B below "
            f"{exp.min_mean_d_footprint:.0f} B (must overwhelm L1-D)")
    if stats.divergence_rate > exp.max_divergence_rate:
        problems.append(
            f"divergence rate {stats.divergence_rate:.1%} above "
            f"{exp.max_divergence_rate:.0%} (events must be mostly "
            f"independent)")
    if stats.distinct_handlers < exp.min_distinct_handlers:
        problems.append(
            f"only {stats.distinct_handlers} distinct handlers "
            f"(need >= {exp.min_distinct_handlers} to destroy locality)")
    return problems
