"""Per-event pre-execution state: the ESP execution contexts.

ESP persists one execution context per jump-ahead mode (Section 3.4): the
duplicated architectural state (RRAT, PC, SP — here: the resume position in
the speculative stream plus the mode's Path Information Register), and the
hint lists being recorded for the event. Pre-execution is *re-entrant*: the
context lets ESP resume an event's pre-execution mid-stream on the next LLC
miss instead of restarting it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.esp.lists import (
    BranchDirectionList,
    BranchTargetList,
    CompressedAddressList,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.branch import PentiumMPredictor
    from repro.isa.stream import PackedStream


@dataclass
class RecordedHints:
    """The lists recorded during one event's pre-execution."""

    i_list: CompressedAddressList
    d_list: CompressedAddressList
    b_dir: BranchDirectionList
    b_tgt: BranchTargetList

    @classmethod
    def for_mode(cls, config, mode: int) -> "RecordedHints":
        """Allocate lists sized for ESP mode ``mode`` (0 = ESP-1)."""
        if config.ideal:
            return cls(CompressedAddressList(0), CompressedAddressList(0),
                       BranchDirectionList(0), BranchTargetList(0))
        return cls(
            CompressedAddressList(config.i_list_bytes[mode]),
            CompressedAddressList(config.d_list_bytes[mode]),
            BranchDirectionList(config.b_list_dir_bytes[mode]),
            BranchTargetList(config.b_list_tgt_bytes[mode]),
        )

    def promote(self, config, mode: int) -> "RecordedHints":
        """Re-home the lists into the (larger) budgets of ``mode`` after the
        event moved one slot closer to execution (Section 4.2)."""
        if self.i_list.unbounded:
            return self
        return RecordedHints(
            self.i_list.absorb_into(config.i_list_bytes[mode]),
            self.d_list.absorb_into(config.d_list_bytes[mode]),
            self.b_dir.absorb_into(config.b_list_dir_bytes[mode]),
            self.b_tgt.absorb_into(config.b_list_tgt_bytes[mode]),
        )


@dataclass
class PreExecState:
    """Everything ESP persists about one queued event's pre-execution."""

    event_index: int
    #: the speculative instruction stream being pre-executed
    stream: "PackedStream | None" = field(repr=False, default=None)
    #: resume position within ``stream`` (the saved PC, conceptually)
    position: int = 0
    #: retired-pre-instruction count (the icount stamped into list entries)
    icount: int = 0
    #: the mode's saved Path Information Register
    pir: int = 0
    #: the mode's private return-address stack (part of the preserved
    #: execution context; keeps speculative frames away from the normal
    #: event's RAS)
    ras: list[int] = field(default_factory=list)
    #: execution-underway bit from the hardware event queue
    started: bool = False
    finished: bool = False
    #: every hint list filled up: pre-executing further gathers nothing, so
    #: the controller stops spending idle cycles on this event
    exhausted: bool = False
    #: hints recorded so far
    hints: RecordedHints | None = None
    #: replicated predictor for the SEPARATE_TABLES design point
    bp_replica: "PentiumMPredictor | None" = None
    #: mode index -> distinct I-blocks touched in that mode, for the
    #: Figure 13 working-set study; None unless the controller collects
    #: working sets
    i_touched_by_mode: dict[int, set[int]] | None = None
    #: block currently being fetched (re-entry resumes cleanly)
    last_i_block: int = -1

    @property
    def remaining(self) -> int:
        return len(self.stream) - self.position if self.stream else 0
