"""PIF-style proactive instruction fetch (Ferdman, Kaynak & Falsafi,
MICRO 2011) — simplified.

The paper's related-work comparison (Section 7): "Compared to PIF, ESP
incurs 15x less hardware overhead and attains 10% higher performance."
This model lets the repository rerun that comparison.

PIF records the *retire-order* stream of instruction-cache block accesses
into a large circular history buffer, with an index from block address to
its most recent position in the history. When fetch touches a block that
heads a recorded sequence, PIF replays the blocks that followed it last
time as prefetches. The design's strength is replaying long, exact
temporal streams; its weakness — the reason it needs hundreds of kilobytes
of state — is that the history must cover the application's full
instruction working set to find matches.

Simplifications versus the original: retire-order compaction of
spatial-region footprints is approximated by block granularity, and the
stream address buffer is folded into the replay window.
"""

from __future__ import annotations

from repro.prefetch.base import Prefetcher

#: bytes of storage per history entry (a compacted block record; the
#: original stores ~4-byte region records plus index overhead)
_BYTES_PER_ENTRY = 5


class PifPrefetcher(Prefetcher):
    """Temporal-stream instruction prefetcher with a circular history."""

    def __init__(self, history_entries: int = 32 * 1024,
                 replay_degree: int = 4, lookahead: int = 2) -> None:
        if history_entries < 2:
            raise ValueError("history needs at least two entries")
        self.history_entries = history_entries
        self.replay_degree = replay_degree
        self.lookahead = lookahead
        self._history: list[int] = [-1] * history_entries
        self._head = 0
        self._index: dict[int, int] = {}
        #: replay cursor into the history (None when not streaming)
        self._replay_pos: int | None = None
        self._replayed = 0

    def hardware_bytes(self) -> int:
        """Approximate storage the design would need (the Section 7
        comparison point; the original PIF evaluates ~200 KB)."""
        index_bytes = self.history_entries // 4 * 7  # sparse index
        return self.history_entries * _BYTES_PER_ENTRY + index_bytes

    def observe(self, pc: int, block: int) -> list[int]:
        history = self._history
        n = self.history_entries
        prev_slot = (self._head - 1) % n

        prefetches: list[int] = []
        if self._replay_pos is not None:
            # streaming: check we are still on the recorded path
            if history[self._replay_pos] == block:
                self._replay_pos = (self._replay_pos + 1) % n
                prefetches.extend(self._replay_window())
            else:
                self._replay_pos = None
                self._replayed = 0
        if self._replay_pos is None:
            # the *previous* occurrence of this block, before the current
            # access is recorded over it
            last = self._index.get(block)
            if last is not None and last != prev_slot:
                # block heads a recorded stream: replay what followed it
                self._replay_pos = (last + 1) % n
                self._replayed = 0
                prefetches.extend(self._replay_window())

        # record the access in retire order (skip exact repeats)
        if history[prev_slot] != block:
            evicted = history[self._head]
            if evicted >= 0 and self._index.get(evicted) == self._head:
                del self._index[evicted]
            history[self._head] = block
            self._index[block] = self._head
            self._head = (self._head + 1) % n
        return prefetches

    def _replay_window(self) -> list[int]:
        """The next ``replay_degree`` recorded blocks past the cursor."""
        out: list[int] = []
        if self._replay_pos is None:
            return out
        pos = (self._replay_pos + self.lookahead) % self.history_entries
        for _ in range(self.replay_degree):
            block = self._history[pos]
            if block >= 0:
                out.append(block)
            pos = (pos + 1) % self.history_entries
        return out

    def reset(self) -> None:
        self._history = [-1] * self.history_entries
        self._head = 0
        self._index.clear()
        self._replay_pos = None
        self._replayed = 0
