"""PC-indexed stride data prefetcher (256 entries, Figure 7).

Classic Chen & Baer reference-prediction-table design: each entry tracks the
last address and last stride observed for one load/store PC, with a 2-bit
confidence counter. Once confidence is established the next address in the
stride sequence is prefetched.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.isa.instructions import BLOCK_SHIFT
from repro.prefetch.base import Prefetcher


class _Entry:
    __slots__ = ("last_addr", "stride", "confidence")

    def __init__(self, addr: int) -> None:
        self.last_addr = addr
        self.stride = 0
        self.confidence = 0


class StridePrefetcher(Prefetcher):
    """PC-indexed reference-prediction table with 2-bit confidence."""

    def __init__(self, entries: int = 256, confidence_threshold: int = 2,
                 degree: int = 1) -> None:
        if entries < 1:
            raise ValueError("table needs at least one entry")
        self.entries = entries
        self.confidence_threshold = confidence_threshold
        self.degree = degree
        self._table: OrderedDict[int, _Entry] = OrderedDict()

    def observe(self, pc: int, addr: int) -> list[int]:
        """Note: for the stride prefetcher ``addr`` is the *byte* address —
        strides smaller than a cache block must still train the table."""
        table = self._table
        entry = table.get(pc)
        if entry is None:
            if len(table) >= self.entries:
                table.popitem(last=False)  # LRU victim
            table[pc] = _Entry(addr)
            return []
        table.move_to_end(pc)
        stride = addr - entry.last_addr
        if stride == entry.stride and stride != 0:
            entry.confidence = min(3, entry.confidence + 1)
        else:
            entry.confidence = max(0, entry.confidence - 1)
            entry.stride = stride
        entry.last_addr = addr
        if entry.confidence < self.confidence_threshold or entry.stride == 0:
            return []
        blocks = []
        current_block = addr >> BLOCK_SHIFT
        for i in range(1, self.degree + 1):
            block = (addr + i * entry.stride) >> BLOCK_SHIFT
            if block != current_block:
                blocks.append(block)
        return blocks

    def reset(self) -> None:
        self._table.clear()
