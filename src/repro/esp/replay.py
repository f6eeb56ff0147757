"""Normal-mode consumption of recorded hints (Section 3.6).

When a pre-executed event is dequeued for normal execution, the ESP
predictors use the recorded lists:

* **I/D prefetch replay** — list entries are stamped with the pre-execution
  instruction count; the replay engine issues each prefetch
  ``prefetch_lead`` (190) instructions ahead of that stamp, or as early as
  possible. The looper thread's ~70 queue-management instructions before the
  event give the first prefetches a head start.
* **B-list just-in-time training** — recorded branches are fed into the
  (shared) predictor tables a preset number of branches ahead of execution,
  with a shadow PIR tracking the path so the trained table indices line up
  with the live lookups.

If the speculative stream diverged from the true stream, later hints simply
stop matching: prefetches fetch unneeded blocks and trained branches never
execute. That degradation — not any explicit invalidation — is how ESP pays
for mis-speculation, matching the paper's design.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.esp.contexts import RecordedHints

if TYPE_CHECKING:  # pragma: no cover
    from repro.branch import PentiumMPredictor
    from repro.memory import MemoryHierarchy
    from repro.sim.config import EspConfig
    from repro.sim.results import EspStats

#: what :meth:`ReplayEngine.poll` returns when no list entry is left to fall
#: due in the current event
NEVER = 1 << 62


class ReplayEngine:
    """Replays one event's recorded hints during its normal execution."""

    def __init__(self, config: "EspConfig", hierarchy: "MemoryHierarchy",
                 predictor: "PentiumMPredictor",
                 stats: "EspStats") -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.predictor = predictor
        self.stats = stats
        self._i_entries: list[tuple[int, int]] = []
        self._d_entries: list[tuple[int, int]] = []
        self._b_entries = []
        self._i_idx = 0
        self._d_idx = 0
        self._b_idx = 0
        self._bt_idx = 0
        self._shadow_pir: int | None = None
        self.active = False
        #: the icount at which the event's first poll is due, after the
        #: headstart poll in attach (see poll)
        self.due = NEVER

    # -- lifecycle -----------------------------------------------------------

    def attach(self, hints: RecordedHints | None, cycle: int) -> None:
        """Arm the engine for the event about to start; ``hints`` is None
        when the event was never pre-executed (or its order prediction was
        marked incorrect)."""
        self._i_idx = self._d_idx = self._b_idx = self._bt_idx = 0
        self._shadow_pir = None
        self.due = NEVER
        if hints is None:
            self._i_entries = []
            self._d_entries = []
            self._b_entries = []
            self.active = False
            return
        self._i_entries = hints.i_list.expand() if self.config.use_i_list \
            else []
        self._d_entries = hints.d_list.expand() if self.config.use_d_list \
            else []
        self._b_entries = hints.b_dir.entries if self.config.use_b_list \
            else []
        self.active = bool(self._i_entries or self._d_entries
                           or self._b_entries)
        if self.active:
            self.stats.hinted_events += 1
        if self.config.ideal:
            # idealised variant: perfectly timely prefetches
            for block, _ in self._i_entries:
                self.hierarchy.fetch_into("i", block)
            self.stats.list_prefetches_i += len(self._i_entries)
            self._i_idx = len(self._i_entries)
            for block, _ in self._d_entries:
                self.hierarchy.fetch_into("d", block)
            self.stats.list_prefetches_d += len(self._d_entries)
            self._d_idx = len(self._d_entries)
        else:
            # the looper's queue-management tail lets prefetching start
            # ~70 instructions before the event does
            self.due = self.poll(-self.config.looper_headstart, cycle)

    # -- per-instruction polling ----------------------------------------------

    def poll(self, icount: int, cycle: int) -> int:
        """Issue every list prefetch due at retired-instruction ``icount``
        (i.e. entries stamped within ``prefetch_lead`` of it).

        Each list issues in record order, so its next entry blocks the rest
        until it falls due. Returns the first icount at which either list's
        next entry does (:data:`NEVER` when both are spent): a poll before
        then issues nothing, which lets the packed loop skip it.
        """
        if not self.active:
            return NEVER
        lead = self.config.prefetch_lead
        horizon = icount + lead
        entries = self._i_entries
        idx = self._i_idx
        n = len(entries)
        issued = 0
        while idx < n and entries[idx][1] <= horizon:
            self.hierarchy.prefetch("i", entries[idx][0], cycle)
            idx += 1
            issued += 1
        self._i_idx = idx
        self.stats.list_prefetches_i += issued
        i_due = entries[idx][1] - lead if idx < n else NEVER

        entries = self._d_entries
        idx = self._d_idx
        n = len(entries)
        issued = 0
        while idx < n and entries[idx][1] <= horizon:
            self.hierarchy.prefetch("d", entries[idx][0], cycle)
            idx += 1
            issued += 1
        self._d_idx = idx
        self.stats.list_prefetches_d += issued
        d_due = entries[idx][1] - lead if idx < n else NEVER
        return min(i_due, d_due)

    # -- just-in-time branch training ------------------------------------------

    def before_branch(self, branch_index: int) -> None:
        """Called right before the ``branch_index``-th *recordable* branch
        (conditional or indirect, 1-based) of the event is predicted.

        Directions train ``blist_train_lead`` recorded branches ahead of
        execution, with a shadow PIR tracking the recorded path so the
        trained table indices line up with the live lookups. Indirect
        targets install just in time — the iBTB keeps one target per site,
        so the recorded target of the branch about to execute must be the
        last one written.
        """
        entries = self._b_entries
        if not entries:
            return
        if self._shadow_pir is None:
            # first branch: align the shadow path context with the live one
            self._shadow_pir = self.predictor.pir
        predictor = self.predictor
        horizon = min(len(entries),
                      branch_index - 1 + self.config.blist_train_lead)
        idx = self._b_idx
        while idx < horizon:
            entry = entries[idx]
            self._shadow_pir = predictor.train_ahead(
                entry.pc, entry.kind, entry.taken, entry.target,
                self._shadow_pir)
            idx += 1
            self.stats.blist_trained += 1
        self._b_idx = idx
        # B-List-Target replay: entry branch_index-1 is the branch about to
        # execute; install its target if it is a taken indirect
        tidx = min(branch_index, len(entries))
        while self._bt_idx < tidx:
            entry = entries[self._bt_idx]
            self._bt_idx += 1
            if entry.indirect and entry.taken:
                predictor.install_indirect_target(entry.pc, entry.target)
