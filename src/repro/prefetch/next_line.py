"""Next-line instruction prefetcher.

On every access to I-block *b* it requests *b+1* (or the next ``degree``
blocks). This is the paper's baseline instruction prefetcher; it captures
sequential fetch within basic blocks and fall-through control flow but
nothing across the scattered handler/library working sets of asynchronous
programs, which is why its gains saturate around 14% (Section 6.1).
"""

from __future__ import annotations

from repro.prefetch.base import Prefetcher


class NextLineIPrefetcher(Prefetcher):
    """Fetch block *b* -> prefetch blocks *b+1..b+degree*."""

    def __init__(self, degree: int = 1) -> None:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        self._last_block: int | None = None

    def observe(self, pc: int, block: int) -> list[int]:
        if block == self._last_block:
            return []
        self._last_block = block
        return [block + i for i in range(1, self.degree + 1)]

    def reset(self) -> None:
        self._last_block = None
