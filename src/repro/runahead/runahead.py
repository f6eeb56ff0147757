"""Runahead execution baseline.

On an LLC data miss at the head of the ROB, a runahead processor
checkpoints, pretends the miss completed, and keeps executing the *same*
instruction stream speculatively until the miss resolves. The speculative
pass prefetches future loads/stores (this is where the technique shines:
every prefetch targets an address the normal execution will genuinely touch
a few hundred instructions later) and keeps training the branch predictor.

Its structural limits — the ones ESP overcomes — are modelled directly:

* Runahead cannot fetch past an instruction-side LLC miss: the front end has
  nowhere to get instructions, so the runahead period ends (Section 1 of the
  paper).
* A mispredicted branch during runahead sends the speculative walk down the
  wrong path; since nothing useful is fetched from there, the period ends.
* It can only look ``budget × IPC`` instructions ahead inside the current
  event, so it never warms the *next* event's cold start.

``d_only`` reproduces the paper's "Runahead-D" variant (Figure 11b): only
the data cache is warmed; no I-side fetches and no branch-predictor updates.

Prefetches issue through the hierarchy's timeliness tracking: blocks
requested during runahead become usable ``latency`` cycles later, so the
normal-mode re-execution may take partial hits on very recent requests —
the same overlap a real runahead machine enjoys from its MSHRs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.branch import MISPREDICT
from repro.isa.instructions import (
    BLOCK_SHIFT,
    KIND_ALU,
    KIND_LOAD,
    KIND_STORE,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.branch import PentiumMPredictor
    from repro.isa.stream import PackedStream
    from repro.memory import MemoryHierarchy
    from repro.sim.config import SimConfig
    from repro.sim.results import EspStats


class RunaheadController:
    """Pre-executes the current event's own stream during LLC-miss stalls."""

    def __init__(self, config: "SimConfig", hierarchy: "MemoryHierarchy",
                 predictor: "PentiumMPredictor",
                 stats: "EspStats") -> None:
        self.config = config
        self.runahead = config.runahead
        self.core = config.core
        self.hierarchy = hierarchy
        self.predictor = predictor
        self.stats = stats
        self.stats.pre_instructions = [0]

    def on_stall(self, stream: "PackedStream", index: int, cycle: int,
                 budget: float) -> None:
        """Enter a runahead period at instruction ``index`` of ``stream``
        (the instruction after the one that missed; the packed stream the
        simulator is executing), with ``budget`` idle cycles to spend."""
        if budget < self.runahead.min_stall_cycles:
            return
        self.stats.mode_entries += 1
        hierarchy = self.hierarchy
        predictor = self.predictor
        d_only = self.runahead.d_only
        base_cost = self.core.base_cpi
        mispredict_penalty = self.core.mispredict_penalty
        issue_cost = 2  # cycles to issue an overlapped prefetch request
        # outstanding-miss (MSHR/LSQ) bound: a runahead period can keep at
        # most this many overlapped data prefetches in flight
        max_prefetches = self.core.lsq_entries
        issued = 0
        # runahead checkpoints front-end state and restores it on exit;
        # predictor *tables* keep their training (that is the benefit)
        saved_pir = predictor.save_pir()
        saved_ras = predictor.snapshot_ras()
        pcs = stream.pc
        kinds = stream.kind
        addrs = stream.addr
        takens = stream.taken
        targets = stream.target
        blocks = stream.block
        n = len(kinds)
        pos = index
        last_block = -1
        pre_count = 0
        while budget > 0 and pos < n:
            i = pos
            pos += 1
            pre_count += 1
            budget -= base_cost

            if not d_only:
                block = blocks[i]
                if block != last_block:
                    last_block = block
                    latency = hierarchy.residency_latency("i", block)
                    if latency >= hierarchy.mem_latency:
                        # cannot fetch past an I-side LLC miss
                        break
                    if latency:
                        budget -= latency
                        hierarchy.fetch_into("i", block)

            kind = kinds[i]
            if kind == KIND_ALU:
                continue
            if kind == KIND_LOAD or kind == KIND_STORE:
                dblock = addrs[i] >> BLOCK_SHIFT
                if not hierarchy.l1d.contains(dblock):
                    if issued >= max_prefetches:
                        break  # MSHRs full: the period cannot look further
                    # overlapped prefetch: request now, usable later
                    hierarchy.prefetch("d", dblock, cycle)
                    budget -= issue_cost
                    issued += 1
                continue
            if d_only:
                continue
            if predictor.execute_branch(pcs[i], kind, takens[i], targets[i],
                                        False) == MISPREDICT:
                # runahead would follow the wrong path from here on
                budget -= mispredict_penalty
                break
        predictor.restore_pir(saved_pir)
        predictor.restore_ras(saved_ras)
        self.stats.pre_instructions[0] += pre_count
