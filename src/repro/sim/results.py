"""Simulation statistics.

A :class:`SimResult` carries everything the paper's figures report:
cycles/IPC (performance improvements are speedups of cycle counts), L1-I
MPKI (Figure 11a), L1-D miss rate (Figure 11b), branch misprediction rate
(Figure 12), extra pre-executed instructions and the energy breakdown
(Figure 14), plus ESP-internal counters used by the analyses in Section 6.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, fields


@dataclass
class EspStats:
    """ESP/runahead side-path counters."""

    #: times the core entered any speculative mode
    mode_entries: int = 0
    #: instructions pre-executed, per mode (index 0 = ESP-1 / runahead)
    pre_instructions: list[int] = field(default_factory=list)
    #: events whose pre-execution ran to completion before they started
    pre_complete_events: int = 0
    #: events that had any recorded hints when they started
    hinted_events: int = 0
    #: events whose speculative stream diverged from the true stream
    diverged_events: int = 0
    #: dequeues where the runtime's event-order prediction was wrong
    #: (multi-queue runtimes, Section 4.5); their hints are suppressed
    order_mispredictions: int = 0
    #: list-recording terminations due to a full list
    list_overflows: int = 0
    #: prefetches issued from I/D-lists during normal mode
    list_prefetches_i: int = 0
    list_prefetches_d: int = 0
    #: B-list entries used for just-in-time training
    blist_trained: int = 0
    #: dirty blocks evicted from D-cachelets (lost speculative stores)
    dirty_evictions: int = 0
    #: cachelet demand stats (accesses, misses) per side
    i_cachelet_accesses: int = 0
    i_cachelet_misses: int = 0
    d_cachelet_accesses: int = 0
    d_cachelet_misses: int = 0

    @property
    def total_pre_instructions(self) -> int:
        return sum(self.pre_instructions)


@dataclass
class EventProfile:
    """Per-event timeline sample (collected when the simulator's
    ``collect_event_profile`` flag is set)."""

    event_index: int = 0
    instructions: int = 0
    cycles: float = 0.0
    stall_ifetch: float = 0.0
    stall_data: float = 0.0
    stall_branch: float = 0.0
    #: the event started with recorded ESP hints attached
    hinted: bool = False

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


@dataclass
class EnergyBreakdown:
    """Energy in normalised units (see :mod:`repro.energy.model`)."""

    static: float = 0.0
    dynamic_core: float = 0.0
    dynamic_caches: float = 0.0
    dynamic_wrongpath: float = 0.0
    dynamic_esp: float = 0.0

    @property
    def total(self) -> float:
        return (self.static + self.dynamic_core + self.dynamic_caches +
                self.dynamic_wrongpath + self.dynamic_esp)


@dataclass
class SimResult:
    """Aggregate outcome of one simulation run."""

    app: str = ""
    config: str = ""
    # core
    instructions: int = 0
    cycles: float = 0.0
    events: int = 0
    # instruction side
    l1i_accesses: int = 0
    l1i_misses: int = 0
    llc_i_misses: int = 0
    # data side
    l1d_accesses: int = 0
    l1d_misses: int = 0
    llc_d_misses: int = 0
    # branches
    branches: int = 0
    branch_mispredicts: int = 0
    # stall accounting (cycles)
    stall_ifetch: float = 0.0
    stall_data: float = 0.0
    stall_branch: float = 0.0
    # prefetching
    prefetches_issued_i: int = 0
    prefetches_useful_i: int = 0
    prefetches_late_i: int = 0
    prefetches_issued_d: int = 0
    prefetches_useful_d: int = 0
    prefetches_late_d: int = 0
    # side paths
    esp: EspStats = field(default_factory=EspStats)
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)

    # -- derived metrics -----------------------------------------------------

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def l1i_mpki(self) -> float:
        if not self.instructions:
            return 0.0
        return 1000.0 * self.l1i_misses / self.instructions

    @property
    def l1d_miss_rate(self) -> float:
        """L1-D miss fraction in [0, 1]."""
        if not self.l1d_accesses:
            return 0.0
        return self.l1d_misses / self.l1d_accesses

    @property
    def branch_misprediction_rate(self) -> float:
        """Mispredictions per executed branch, in [0, 1]."""
        if not self.branches:
            return 0.0
        return self.branch_mispredicts / self.branches

    @property
    def extra_instruction_fraction(self) -> float:
        """Pre-executed instructions as a fraction of retired ones
        (the numbers atop the Figure 14 bars)."""
        if not self.instructions:
            return 0.0
        return self.esp.total_pre_instructions / self.instructions

    def speedup_over(self, baseline: "SimResult") -> float:
        """Performance of this run relative to ``baseline`` (1.0 = equal)."""
        if not self.cycles:
            return 0.0
        return baseline.cycles / self.cycles

    def improvement_over(self, baseline: "SimResult") -> float:
        """Performance improvement percentage over ``baseline``."""
        return (self.speedup_over(baseline) - 1.0) * 100.0

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-serialisable) for the on-disk result cache."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SimResult":
        data = dict(data)
        esp = EspStats(**data.pop("esp", {}))
        energy = EnergyBreakdown(**data.pop("energy", {}))
        return cls(esp=esp, energy=energy, **data)


def _schema_digest() -> str:
    """Digest of the result record's field layout.

    Baked into on-disk cache keys so entries written by an older code
    version — which would fail or, worse, silently misreport after a field
    rename — self-invalidate instead of being deserialised.
    """
    spec = ";".join(
        f"{cls.__name__}:" + ",".join(f.name for f in fields(cls))
        for cls in (SimResult, EspStats, EnergyBreakdown))
    return hashlib.sha256(spec.encode()).hexdigest()[:8]


#: schema tag for :mod:`repro.sim.experiments` cache keys
RESULT_SCHEMA = _schema_digest()
