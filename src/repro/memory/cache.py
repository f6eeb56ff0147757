"""Set-associative cache with true-LRU replacement.

This is the building block for the L1/L2 hierarchy and the ESP cachelets.
The simulator separates *lookup* (does the block hit, updating recency) from
*fill* (install the block, possibly evicting), because several paths in the
design probe caches without disturbing them (e.g. ESP pre-execution peeks at
L1/L2 residency without polluting LRU state, Section 3.4).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class CacheStats:
    """Demand-access counters for one cache."""

    accesses: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        """Miss fraction in [0, 1]; 0.0 when the cache was never accessed."""
        if not self.accesses:
            return 0.0
        return self.misses / self.accesses

    def mpki(self, instructions: int) -> float:
        """Misses per kilo-instruction against a retired-instruction count."""
        if not instructions:
            return 0.0
        return 1000.0 * self.misses / instructions


class SetAssocCache:
    """A set-associative cache of 64 B blocks with LRU replacement.

    Capacity may be given either as ``(size_bytes, assoc)`` or directly as a
    way/set geometry. A single-set (fully associative) layout is used when
    ``size_bytes // (assoc * 64)`` would round to zero, which lets the tiny
    ESP-2 cachelets (0.5 KB, nominally 12-way) be modelled faithfully.
    """

    def __init__(self, size_bytes: int, assoc: int, line_bytes: int = 64,
                 name: str = "cache") -> None:
        if size_bytes <= 0 or assoc <= 0 or line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        total_lines = max(1, size_bytes // line_bytes)
        assoc = min(assoc, total_lines)
        self.name = name
        self.line_bytes = line_bytes
        self.num_sets = max(1, total_lines // assoc)
        self.assoc = total_lines // self.num_sets
        self.capacity_blocks = self.num_sets * self.assoc
        self.stats = CacheStats()
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]

    # -- probing ----------------------------------------------------------

    def contains(self, block: int) -> bool:
        """Residency check with no LRU side effects."""
        return block in self._sets[block % self.num_sets]

    # -- demand path -------------------------------------------------------

    def lookup(self, block: int) -> bool:
        """Demand lookup: returns hit/miss and updates recency and stats.

        Does *not* fill on a miss; callers decide where miss data lands
        (the ESP cachelet path deliberately fills a different structure).
        """
        cache_set = self._sets[block % self.num_sets]
        self.stats.accesses += 1
        if block in cache_set:
            cache_set.move_to_end(block)
            return True
        self.stats.misses += 1
        return False

    def access(self, block: int) -> bool:
        """Demand lookup that fills on a miss. Returns hit/miss."""
        hit = self.lookup(block)
        if not hit:
            self.fill(block)
        return hit

    def fill(self, block: int) -> int | None:
        """Install ``block``; return the evicted block number, if any."""
        cache_set = self._sets[block % self.num_sets]
        if block in cache_set:
            cache_set.move_to_end(block)
            return None
        victim = None
        if len(cache_set) >= self.assoc:
            victim, _ = cache_set.popitem(last=False)
            self.stats.evictions += 1
        cache_set[block] = None
        self.stats.fills += 1
        return victim

    # -- maintenance -------------------------------------------------------

    def invalidate(self, block: int) -> bool:
        """Drop ``block`` if present; returns whether it was resident."""
        cache_set = self._sets[block % self.num_sets]
        if block in cache_set:
            del cache_set[block]
            return True
        return False

    def clear(self) -> None:
        """Invalidate all contents (stats are preserved)."""
        for cache_set in self._sets:
            cache_set.clear()

    def resident_blocks(self) -> list[int]:
        """All resident block numbers (LRU order within each set)."""
        blocks: list[int] = []
        for cache_set in self._sets:
            blocks.extend(cache_set.keys())
        return blocks

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SetAssocCache {self.name}: {self.num_sets}x{self.assoc} "
                f"lines, {len(self)} resident>")
