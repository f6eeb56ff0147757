"""Simulator configuration.

The defaults reproduce the paper's simulated machine:

* Figure 7 — baseline core (Exynos 5250-class): 4-wide out-of-order at
  1.66 GHz, 96-entry ROB, 16-entry LSQ; 32 KB 2-way L1 caches with 2-cycle
  hits; 2 MB 16-way L2 with 21-cycle hits; 101-cycle DRAM; Pentium M branch
  predictor with a 15-cycle misprediction penalty; next-line instruction
  prefetcher plus next-line (DCU) and 256-entry stride data prefetchers.
* Figure 8 — ESP hardware: 12-way 5.5 KB / 0.5 KB cachelets, the I/D/B list
  byte budgets, the 2-entry hardware event queue.

Every knob the paper's evaluation sweeps (prefetcher mix, runahead variants,
ESP ablations, perfect structures, branch-predictor design points, cachelet
and list sizing, jump-ahead depth) is a field here so that each figure's
harness is just a set of :class:`SimConfig` values.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters (Figure 7)."""

    width: int = 4
    rob_entries: int = 96
    lsq_entries: int = 16
    frequency_ghz: float = 1.66
    mispredict_penalty: int = 15
    #: cycles charged to drain/flush the pipeline when switching between the
    #: normal and ESP execution contexts (Section 4.1 handles these switches
    #: "similar to how wrong-path instructions ... are handled").
    context_switch_penalty: int = 10
    #: steady-state cycles per instruction with perfect caches and branch
    #: prediction. A 4-wide machine retires at best 0.25 CPI; dependence
    #: chains, LSQ pressure and issue inefficiency keep real code near half
    #: the peak, which the interval model folds into this single constant.
    base_cpi: float = 0.72
    #: short front-end bubble when an unconditional direct branch misses the
    #: BTB (decode resolves the target; no flush)
    btb_bubble_penalty: int = 4
    #: cycles of each instruction-fetch stall hidden by the fetch/decode
    #: queues ahead of the pipeline
    fetch_hide_cycles: int = 4
    #: cycles of a short data-access latency (an L2 hit) the out-of-order
    #: window actually hides. The 16-entry LSQ — not the 96-entry ROB —
    #: bounds how many loads can wait concurrently, so L2 hits retain an
    #: exposed cost ("the processor still has to pay the penalty of an L2
    #: cache access", Section 3.5).
    data_hide_cycles: int = 14

    @property
    def rob_hide_cycles(self) -> int:
        """Cycles of a data-miss stall hidden while the ROB fills behind the
        blocked head instruction."""
        return self.rob_entries // self.width

    def __post_init__(self) -> None:
        if self.width <= 0 or self.rob_entries <= 0:
            raise ValueError("core width and ROB size must be positive")


@dataclass(frozen=True)
class CacheConfig:
    """A single set-associative cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int = 64
    hit_latency: int = 2

    def __post_init__(self) -> None:
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ValueError(
                f"cache size {self.size_bytes} not divisible into "
                f"{self.assoc}-way sets of {self.line_bytes} B lines"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


@dataclass(frozen=True)
class MemoryConfig:
    """Cache hierarchy and DRAM (Figure 7)."""

    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 2, hit_latency=2)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 2, hit_latency=2)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(2 * 1024 * 1024, 16, hit_latency=21)
    )
    dram_latency: int = 101
    #: cycles to stream one 64 B line over the DRAM bus. Figure 7's
    #: 12.8 GB/s at 1.66 GHz is ~7.7 bytes/cycle, i.e. ~8 cycles per line.
    #: 0 disables bandwidth modelling (the default: the headline results
    #: are calibrated latency-only, like most trace-driven studies; the
    #: bandwidth ablation benchmark shows the sensitivity).
    dram_line_transfer_cycles: int = 0


@dataclass(frozen=True)
class PrefetchConfig:
    """Baseline prefetchers (Figure 7).

    ``NL`` in the figures means next-line on both sides; ``NL + S`` adds the
    256-entry stride data prefetcher. The DCU-style next-line data prefetcher
    follows Intel's description: it arms only after ``dcu_trigger``
    consecutive accesses to the same line.
    """

    next_line_i: bool = False
    next_line_d: bool = False
    stride: bool = False
    stride_entries: int = 256
    dcu_trigger: int = 4
    #: next-line degree (blocks prefetched ahead) for the I-side prefetcher
    next_line_i_degree: int = 1
    #: related-work instruction prefetchers (Section 7 comparisons)
    efetch: bool = False
    efetch_contexts: int = 1024
    efetch_blocks_per_context: int = 8
    pif: bool = False
    pif_history_entries: int = 32768
    pif_replay_degree: int = 4


class EspBpMode(str, enum.Enum):
    """Branch-predictor integration design points (Figure 12).

    * ``NONE`` — pre-execution neither reads nor trains the predictor
      (lower pre-execution ILP, no normal-mode benefit).
    * ``NAIVE`` — "no extra H/W": pre-execution shares the normal PIR and
      trains the shared tables directly.
    * ``SEPARATE_CONTEXT`` — per-mode PIRs, shared tables, tables trained in
      ESP modes (no B-lists).
    * ``SEPARATE_TABLES`` — fully replicated predictor per ESP mode; the
      replica warmed during pre-execution is consulted during the event's
      normal execution.
    * ``BLIST`` — the ESP design: per-mode PIRs plus B-List-Direction /
      B-List-Target just-in-time training during normal execution.
    """

    NONE = "none"
    NAIVE = "naive"
    SEPARATE_CONTEXT = "separate_context"
    SEPARATE_TABLES = "separate_tables"
    BLIST = "blist"


@dataclass(frozen=True)
class EspConfig:
    """Event Sneak Peek hardware (Figure 8 and Sections 3-4)."""

    enabled: bool = False
    #: number of events ESP may jump ahead (the paper settles on 2; the
    #: Figure 13 working-set study instruments depths up to 8).
    depth: int = 2
    #: per-mode I/D cachelet capacities in bytes, index 0 = ESP-1.
    i_cachelet_bytes: tuple[int, ...] = (5632, 512)
    d_cachelet_bytes: tuple[int, ...] = (5632, 512)
    cachelet_assoc: int = 12
    cachelet_hit_latency: int = 2
    #: list budgets in bytes, per mode (Figure 8).
    i_list_bytes: tuple[int, ...] = (499, 68)
    d_list_bytes: tuple[int, ...] = (510, 57)
    b_list_dir_bytes: tuple[int, ...] = (566, 80)
    b_list_tgt_bytes: tuple[int, ...] = (41, 6)
    #: prefetches issue this many instructions ahead of recorded use
    #: (Section 3.6).
    prefetch_lead: int = 190
    #: looper-thread event-management instructions available to issue
    #: prefetches before an event starts (Section 3.6).
    looper_headstart: int = 70
    #: branches of just-in-time B-list training lead (Section 3.6 keeps the
    #: training "a preset number of branches ahead").
    blist_train_lead: int = 8
    #: minimum exposed stall (cycles) worth entering an ESP mode for.
    min_stall_cycles: int = 20
    bp_mode: EspBpMode = EspBpMode.BLIST
    #: ablation switches (Figure 10): which recorded hints are consumed.
    use_i_list: bool = True
    use_d_list: bool = True
    use_b_list: bool = True
    #: the "naive ESP" design of Figure 10: no cachelets and no lists —
    #: pre-execution fetches straight into L1/L2 and trains the shared
    #: branch predictor.
    naive: bool = False
    #: prematurity decay for naive fills (scaling substitution — see
    #: DESIGN.md): the paper's events are an order of magnitude longer than
    #: the scaled traces here, so the traffic between a naive fill and its
    #: use would evict most of it from L1 and much of it from L2. At each
    #: event boundary, surviving naive fills are dropped from L1 with
    #: ``naive_l1_decay`` probability and from L2 with ``naive_l2_decay``.
    naive_l1_decay: float = 0.85
    naive_l2_decay: float = 0.55
    #: idealised variant for Figure 11's "ideal ESP" series: unbounded
    #: cachelets/lists and perfectly timely prefetches.
    ideal: bool = False

    def __post_init__(self) -> None:
        if self.enabled and self.depth < 1:
            raise ValueError("ESP depth must be >= 1")
        for name in ("i_cachelet_bytes", "d_cachelet_bytes", "i_list_bytes",
                     "d_list_bytes", "b_list_dir_bytes", "b_list_tgt_bytes"):
            values = getattr(self, name)
            if self.enabled and not self.naive and len(values) < self.depth:
                raise ValueError(
                    f"{name} must provide a capacity for each of the "
                    f"{self.depth} ESP modes"
                )


@dataclass(frozen=True)
class RunaheadConfig:
    """Runahead execution baseline (Mutlu et al., HPCA 2003).

    ``d_only`` reproduces the paper's "Runahead-D" variant (Figure 11b):
    runahead periods only warm the data cache — no instruction-side warm-up
    and no branch-predictor updates.
    """

    enabled: bool = False
    d_only: bool = False
    min_stall_cycles: int = 20


@dataclass(frozen=True)
class PerfectConfig:
    """Idealised structures for the Figure 3 potential study."""

    l1i: bool = False
    l1d: bool = False
    branch: bool = False

    @property
    def any(self) -> bool:
        return self.l1i or self.l1d or self.branch


@dataclass(frozen=True)
class BranchPredictorConfig:
    """Pentium M branch predictor sizing (Figure 7)."""

    global_entries: int = 2048
    local_entries: int = 4096
    loop_entries: int = 2048
    btb_entries: int = 2048
    ibtb_entries: int = 256
    pir_bits: int = 15
    local_history_bits: int = 4
    loop_max_count: int = 64


@dataclass(frozen=True)
class SimConfig:
    """Complete configuration for one simulation run."""

    name: str = "baseline"
    core: CoreConfig = field(default_factory=CoreConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    prefetch: PrefetchConfig = field(default_factory=PrefetchConfig)
    branch: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)
    esp: EspConfig = field(default_factory=EspConfig)
    runahead: RunaheadConfig = field(default_factory=RunaheadConfig)
    perfect: PerfectConfig = field(default_factory=PerfectConfig)

    def __post_init__(self) -> None:
        if self.esp.enabled and self.runahead.enabled:
            raise ValueError("ESP and runahead are alternative designs; "
                             "enable at most one")

    def replace(self, **changes) -> "SimConfig":
        """Return a copy with top-level fields replaced."""
        return dataclasses.replace(self, **changes)

    def cache_key(self) -> str:
        """Stable digest identifying this configuration (for result caching).

        The ``name`` field is presentation-only and excluded, so two presets
        that configure identical hardware share cached results.
        """
        body = repr(dataclasses.replace(self, name=""))
        return hashlib.sha256(body.encode()).hexdigest()[:16]
