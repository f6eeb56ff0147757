"""ESP cachelets (Section 3.4, Section 4.2).

Each ESP mode owns a small L0 "cachelet" on each side (I and D) used
exclusively during speculative pre-execution. Blocks fetched in an ESP mode
bypass L1/L2 and land here; stores update only the D-cachelet and are never
written back, isolating speculation from the architectural memory state.

The paper provisions one 12-way 6 KB structure per side with one way reserved
for ESP-2 (0.5 KB) and eleven for ESP-1 (5.5 KB), the reserved way rotating
on event completion. We model that partitioning as one small cache per mode
with explicit content migration on promotion, which preserves the two
properties that matter to the study: per-mode capacity, and ESP-2's working
set surviving into ESP-1 when events advance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.cache import SetAssocCache


@dataclass
class CacheletStats:
    """Access counters for one cachelet."""

    accesses: int = 0
    misses: int = 0
    dirty_evictions: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses


class Cachelet:
    """One per-mode L0 cachelet (either side).

    ``unbounded=True`` models the infinite cachelet of the "ideal ESP"
    series in Figure 11.
    """

    def __init__(self, size_bytes: int, assoc: int = 12,
                 unbounded: bool = False, name: str = "cachelet") -> None:
        self.name = name
        self.unbounded = unbounded
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.stats = CacheletStats()
        self._dirty: set[int] = set()
        self._cache = None if unbounded else SetAssocCache(
            size_bytes, assoc, name=name)
        self._resident: set[int] = set()  # used when unbounded
        #: distinct blocks ever touched, for the Figure 13 working-set study
        self.touched: set[int] = set()

    def access(self, block: int, is_store: bool = False) -> bool:
        """Access ``block``; fills on miss. Returns hit/miss.

        Runs once per pre-executed block change, so the bounded case does
        :meth:`SetAssocCache.lookup` and :meth:`SetAssocCache.fill` on the
        set directly, with the same recency, stats and victim choice.
        """
        stats = self.stats
        stats.accesses += 1
        self.touched.add(block)
        if self.unbounded:
            hit = block in self._resident
            if not hit:
                stats.misses += 1
                self._resident.add(block)
        else:
            cache = self._cache
            cache_stats = cache.stats
            cache_set = cache._sets[block % cache.num_sets]
            cache_stats.accesses += 1
            hit = block in cache_set
            if hit:
                cache_set.move_to_end(block)
            else:
                cache_stats.misses += 1
                stats.misses += 1
                if len(cache_set) >= cache.assoc:
                    victim, _ = cache_set.popitem(last=False)
                    cache_stats.evictions += 1
                    if victim in self._dirty:
                        self._dirty.discard(victim)
                        stats.dirty_evictions += 1
                cache_set[block] = None
                cache_stats.fills += 1
        if is_store:
            self._dirty.add(block)
        return hit

    def contains(self, block: int) -> bool:
        if self.unbounded:
            return block in self._resident
        return self._cache.contains(block)

    def resident_blocks(self) -> list[int]:
        if self.unbounded:
            return list(self._resident)
        return self._cache.resident_blocks()

    def clear(self) -> None:
        """Flush contents and dirty state (not the counters)."""
        self._dirty.clear()
        if self.unbounded:
            self._resident.clear()
        else:
            self._cache.clear()

    def absorb(self, other: "Cachelet") -> None:
        """Install ``other``'s resident blocks here (promotion path)."""
        for block in other.resident_blocks():
            if self.unbounded:
                self._resident.add(block)
            else:
                self._cache.fill(block)
        self._dirty.update(b for b in other._dirty if self.contains(b))


class CacheletPair:
    """The per-mode cachelet files for one side (I or D).

    ``sizes`` gives the capacity for each ESP mode, index 0 = ESP-1. On
    :meth:`promote` (the current event finished; every queued event moves one
    slot closer), each mode's working set migrates into the next-larger
    cachelet and the deepest mode starts cold — mirroring the paper's
    reserved-way rotation.
    """

    def __init__(self, sizes: tuple[int, ...], assoc: int = 12,
                 unbounded: bool = False, side: str = "i") -> None:
        if not sizes:
            raise ValueError("need at least one cachelet size")
        self.side = side
        self.modes = [
            Cachelet(size, assoc, unbounded=unbounded,
                     name=f"{side}-cachelet-esp{i + 1}")
            for i, size in enumerate(sizes)
        ]

    def __getitem__(self, mode_index: int) -> Cachelet:
        return self.modes[mode_index]

    def __len__(self) -> int:
        return len(self.modes)

    def promote(self) -> None:
        for shallower, deeper in zip(self.modes, self.modes[1:]):
            shallower.absorb(deeper)
            deeper.clear()
        if len(self.modes) == 1:
            # with a single mode there is nothing to inherit; start cold
            self.modes[0].clear()

    def clear_all(self) -> None:
        for cachelet in self.modes:
            cachelet.clear()
