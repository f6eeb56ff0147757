"""The L1-I / L1-D / unified-L2 / DRAM hierarchy.

Latency model (Figure 7): an L1 hit costs nothing beyond the pipelined
2-cycle access; an L2 hit exposes its 21-cycle latency; an L2 (last-level)
miss exposes ``21 + 101`` cycles and is flagged ``llc_miss`` — those are the
events that trigger runahead periods and ESP jump-aheads.

Prefetch timeliness is modelled explicitly. A prefetch issued at cycle *t*
for a block whose data currently lives at a level with residual latency *L*
becomes usable at ``t + L``. A demand access before that pays only the
remainder (a partial hit); a demand access after that is a full hit, at which
point the block is installed in L1 (and L2). Filling at consumption time
approximates a prefetch that arrives just ahead of use — ESP issues its list
prefetches only ``prefetch_lead`` instructions early, so the in-L1 window is
short. The *naive* ESP design of Figure 10 instead fetches straight into
L1/L2 at pre-execution time via :meth:`MemoryHierarchy.fetch_into`, which is
what exposes it to the pollution the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.cache import SetAssocCache
from repro.sim.config import MemoryConfig


@dataclass
class AccessResult:
    """Outcome of one demand access."""

    #: stall cycles exposed beyond the pipelined L1 hit
    latency: int
    #: True if the access had to go to DRAM
    llc_miss: bool
    #: True if the access hit in L1 (after any prefetch consumption)
    l1_hit: bool
    #: True if a pending prefetch fully or partially covered the miss
    prefetched: bool = False


@dataclass
class PrefetchStats:
    """Prefetch effectiveness counters for one side (I or D)."""

    issued: int = 0
    #: demand access found the prefetched data fully ready
    useful: int = 0
    #: demand access arrived before the prefetch completed (partial cover)
    late: int = 0
    #: dropped without ever being referenced
    useless: int = 0


class _PendingPrefetches:
    """In-flight and completed-but-unconsumed prefetches for one side."""

    def __init__(self, capacity: int = 8192) -> None:
        self.capacity = capacity
        self.ready_at: dict[int, int] = {}
        self.stats = PrefetchStats()

    def issue(self, block: int, ready_cycle: int) -> None:
        pending = self.ready_at
        if block in pending:
            # keep the earlier completion time
            if ready_cycle < pending[block]:
                pending[block] = ready_cycle
            return
        if len(pending) >= self.capacity:
            # evict the oldest-issued entry; it never got used
            oldest = next(iter(pending))
            del pending[oldest]
            self.stats.useless += 1
        pending[block] = ready_cycle
        self.stats.issued += 1

    def consume(self, block: int, cycle: int) -> int | None:
        """If ``block`` was prefetched, return residual wait cycles (>= 0)."""
        ready = self.ready_at.pop(block, None)
        if ready is None:
            return None
        if ready <= cycle:
            self.stats.useful += 1
            return 0
        self.stats.late += 1
        return ready - cycle

    def clear(self) -> None:
        self.stats.useless += len(self.ready_at)
        self.ready_at.clear()


class MemoryHierarchy:
    """Two-level cache hierarchy with prefetch timeliness tracking."""

    def __init__(self, config: MemoryConfig | None = None) -> None:
        self.config = config or MemoryConfig()
        cfg = self.config
        self.l1i = SetAssocCache(cfg.l1i.size_bytes, cfg.l1i.assoc,
                                 cfg.l1i.line_bytes, name="L1-I")
        self.l1d = SetAssocCache(cfg.l1d.size_bytes, cfg.l1d.assoc,
                                 cfg.l1d.line_bytes, name="L1-D")
        self.l2 = SetAssocCache(cfg.l2.size_bytes, cfg.l2.assoc,
                                cfg.l2.line_bytes, name="L2")
        self.l2_latency = cfg.l2.hit_latency
        self.mem_latency = cfg.l2.hit_latency + cfg.dram_latency
        self._pending = {"i": _PendingPrefetches(), "d": _PendingPrefetches()}
        #: DRAM-bus bandwidth model (0 = unmodelled): time the bus is busy
        self._transfer_cycles = cfg.dram_line_transfer_cycles
        self._dram_free = 0.0
        #: cycles of queuing delay added by bus contention
        self.bandwidth_stall_cycles = 0.0

    def _dram_latency(self, cycle: int) -> int:
        """DRAM access latency at ``cycle``, including bus queuing when
        bandwidth modelling is enabled."""
        if not self._transfer_cycles:
            return self.mem_latency
        start = max(float(cycle), self._dram_free)
        self._dram_free = start + self._transfer_cycles
        queuing = start - cycle
        self.bandwidth_stall_cycles += queuing
        return self.mem_latency + int(queuing)

    # -- demand accesses ---------------------------------------------------

    def access(self, side: str, block: int, cycle: int) -> AccessResult:
        """Demand access on side ``"i"`` or ``"d"`` at ``cycle``."""
        l1 = self.l1i if side == "i" else self.l1d
        if l1.lookup(block):
            return AccessResult(latency=0, llc_miss=False, l1_hit=True)
        return self.miss_after_l1(side, block, cycle)

    def miss_after_l1(self, side: str, block: int, cycle: int
                      ) -> AccessResult:
        """Continuation of :meth:`access` after an L1 demand miss.

        The simulator's packed fast path performs the L1 lookup (recency +
        stats update) inline and calls this only for the miss minority, so
        the hit majority pays no function calls and no
        :class:`AccessResult` allocation.
        """
        # a pending prefetch may cover the miss, fully or partially
        l1 = self.l1i if side == "i" else self.l1d
        residual = self._pending[side].consume(block, cycle)
        if residual is not None:
            l1.fill(block)
            self.l2.fill(block)
            return AccessResult(latency=residual, llc_miss=False,
                                l1_hit=False, prefetched=True)

        if self.l2.lookup(block):
            l1.fill(block)
            return AccessResult(latency=self.l2_latency, llc_miss=False,
                                l1_hit=False)

        self.l2.fill(block)
        l1.fill(block)
        return AccessResult(latency=self._dram_latency(cycle),
                            llc_miss=True, l1_hit=False)

    def access_i(self, block: int, cycle: int) -> AccessResult:
        return self.access("i", block, cycle)

    def access_d(self, block: int, cycle: int) -> AccessResult:
        return self.access("d", block, cycle)

    # -- prefetch paths ------------------------------------------------------

    def residency_latency(self, side: str, block: int) -> int:
        """Latency a fetch of ``block`` would see right now (no side effects)."""
        l1 = self.l1i if side == "i" else self.l1d
        if l1.contains(block):
            return 0
        if self.l2.contains(block):
            return self.l2_latency
        return self.mem_latency

    def prefetch(self, side: str, block: int, cycle: int) -> bool:
        """Issue a timeliness-tracked prefetch. Returns False if redundant."""
        l1 = self.l1i if side == "i" else self.l1d
        if l1.contains(block):
            return False
        if self.l2.contains(block):
            latency = self.l2_latency
        else:
            latency = self._dram_latency(cycle)
        self._pending[side].issue(block, cycle + latency)
        return True

    def fetch_into(self, side: str, block: int) -> None:
        """Immediately install ``block`` in L1 and L2 (the naive-ESP and
        runahead warm-up path). Evictions pollute like any other fill."""
        l1 = self.l1i if side == "i" else self.l1d
        self.l2.fill(block)
        l1.fill(block)

    def prefetch_stats(self, side: str) -> PrefetchStats:
        """The prefetch-timeliness counters for side ``"i"`` or ``"d"``."""
        return self._pending[side].stats

    def publish_metrics(self, registry) -> None:
        """Fold the demand-cache hit/miss and prefetch-timeliness counters
        into a :class:`~repro.obs.metrics.MetricsRegistry` (called once per
        run when metrics are enabled — the hierarchy keeps these counters
        anyway, so demand accesses pay nothing for observability)."""
        for cache in (self.l1i, self.l1d, self.l2):
            stats = cache.stats
            label = cache.name.lower().replace("-", "")
            registry.inc(f"mem.{label}.hits", stats.accesses - stats.misses)
            registry.inc(f"mem.{label}.misses", stats.misses)
        for side in ("i", "d"):
            stats = self._pending[side].stats
            registry.inc(f"mem.prefetch.{side}.issued", stats.issued)
            registry.inc(f"mem.prefetch.{side}.useful", stats.useful)
            registry.inc(f"mem.prefetch.{side}.late", stats.late)
            registry.inc(f"mem.prefetch.{side}.useless", stats.useless)
        if self.bandwidth_stall_cycles:
            registry.inc("mem.bandwidth_stall_cycles",
                         int(self.bandwidth_stall_cycles))

    def drop_pending(self, side: str) -> None:
        """Discard unconsumed prefetches (used between events when recorded
        hints are known to be stale)."""
        self._pending[side].clear()
