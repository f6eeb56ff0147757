"""Intel DCU-style next-line data prefetcher.

Per Doweck's description of the Core microarchitecture's DCU prefetcher
(which the paper models): the prefetcher watches for multiple consecutive
accesses to the *same* cache line and, once the streak reaches the trigger
threshold, fetches the next line. This makes it conservative — it only pays
off for genuinely streaming access patterns.
"""

from __future__ import annotations

from repro.prefetch.base import Prefetcher


class DcuPrefetcher(Prefetcher):
    """Next-line data prefetch armed by N consecutive same-line accesses."""

    def __init__(self, trigger: int = 4) -> None:
        if trigger < 1:
            raise ValueError("trigger must be >= 1")
        self.trigger = trigger
        self._streak_block: int | None = None
        self._streak = 0
        self._armed_for: int | None = None

    def observe(self, pc: int, block: int) -> list[int]:
        if block == self._streak_block:
            self._streak += 1
        else:
            self._streak_block = block
            self._streak = 1
        if self._streak == self.trigger and self._armed_for != block:
            self._armed_for = block
            return [block + 1]
        return []

    def reset(self) -> None:
        self._streak_block = None
        self._streak = 0
        self._armed_for = None
