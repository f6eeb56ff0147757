"""EFetch-style instruction prefetch (Chadha, Mahlke & Narayanasamy,
PACT 2014) — simplified.

EFetch is the same group's earlier, software-visible instruction prefetcher
for event-driven web applications; ESP's Section 7 compares against it:
"Compared to a recent instruction prefetcher, EFetch, ESP incurs 3x less
hardware overhead and attains 6% higher performance."

EFetch's idea: in event-driven JavaScript, the *call context* (the hash of
the current call stack) strongly predicts which function bodies execute
next. A context table maps the current context to the instruction-cache
blocks observed under it previously; on a context change (call/return),
the predicted blocks are prefetched.

This model keeps the essential structure: a rolling call-context signature,
a context table of observed block footprints, and prefetch-on-context-
switch, with table capacities sized to land near the original's ~40 KB of
state (the 3x-more-than-ESP comparison point).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.prefetch.base import Prefetcher

#: approximate bytes per stored footprint block (tag + pointer amortised)
_BYTES_PER_BLOCK = 4
_BYTES_PER_CONTEXT = 8


class EfetchPrefetcher(Prefetcher):
    """Call-context-indexed instruction prefetcher.

    Unlike the other prefetchers, EFetch needs call/return visibility; the
    simulator calls :meth:`on_call` / :meth:`on_return` from the branch
    path, while :meth:`observe` accumulates the footprint of the current
    context.
    """

    def __init__(self, contexts: int = 1024,
                 blocks_per_context: int = 8) -> None:
        if contexts < 1 or blocks_per_context < 1:
            raise ValueError("table capacities must be positive")
        self.contexts = contexts
        self.blocks_per_context = blocks_per_context
        self._table: OrderedDict[int, OrderedDict[int, None]] = OrderedDict()
        self._context = 0
        self._stack: list[int] = []

    def hardware_bytes(self) -> int:
        """Approximate storage (original EFetch evaluates ~40 KB)."""
        return self.contexts * (
            _BYTES_PER_CONTEXT + self.blocks_per_context * _BYTES_PER_BLOCK)

    # -- call-context tracking -------------------------------------------------

    def _footprint(self, context: int) -> OrderedDict[int, None]:
        table = self._table
        entry = table.get(context)
        if entry is None:
            if len(table) >= self.contexts:
                table.popitem(last=False)
            entry = OrderedDict()
            table[context] = entry
        else:
            table.move_to_end(context)
        return entry

    def on_call(self, target: int) -> list[int]:
        """A call (direct or indirect) to ``target``: push context and
        prefetch the new context's recorded footprint."""
        self._stack.append(self._context)
        if len(self._stack) > 64:
            del self._stack[0]
        self._context = ((self._context * 31) ^ (target >> 2)) & 0xFFFFFFFF
        # the callee's entry blocks are always worth fetching, learned
        # footprint or not
        entry_block = target >> 6
        return [entry_block, entry_block + 1] + self._predicted_blocks()

    def on_return(self) -> list[int]:
        """A return: pop back to the caller's context and prefetch what it
        executes next (post-call footprint)."""
        self._context = self._stack.pop() if self._stack else 0
        return self._predicted_blocks()

    def _predicted_blocks(self) -> list[int]:
        entry = self._table.get(self._context)
        if not entry:
            return []
        self._table.move_to_end(self._context)
        return list(entry)

    # -- footprint learning -----------------------------------------------------

    def observe(self, pc: int, block: int) -> list[int]:
        """Record ``block`` in the current context's footprint; EFetch
        issues its prefetches on context switches, not per access."""
        entry = self._footprint(self._context)
        if block in entry:
            entry.move_to_end(block)
        else:
            if len(entry) >= self.blocks_per_context:
                entry.popitem(last=False)
            entry[block] = None
        return []

    def reset(self) -> None:
        self._table.clear()
        self._context = 0
        self._stack.clear()

    def metrics_snapshot(self) -> dict[str, float]:
        """Learned-context count and total recorded footprint blocks."""
        return {"prefetch.efetch.contexts": len(self._table),
                "prefetch.efetch.footprint_blocks":
                    sum(len(fp) for fp in self._table.values())}
