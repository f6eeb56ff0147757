"""The ESP controller: mode switching and speculative pre-execution.

This is the heart of the reproduction. The controller owns the hardware
event queue, the per-mode cachelets, the per-mode branch-predictor contexts,
and the recorded hint lists. The simulator calls into it at two points:

* :meth:`EspController.begin_event` — the looper dequeued an event; promote
  every queue slot one position (cachelet and list promotion, Section 4.2),
  enqueue the newly visible event, and arm the replay engine with whatever
  hints the starting event accumulated while it was being pre-executed.
* :meth:`EspController.on_stall` — the normal event exposed an LLC-miss
  stall; spend those idle cycles pre-executing queued events (ESP-1 first,
  jumping to ESP-2 when ESP-1 itself misses the LLC or ends, Section 3.2).

Pre-execution is trace-driven off each event's *speculative* stream: the
stream a forked execution would observe given the shared state at pre-
execution time, which diverges from the eventual truth for ~1 % of events.
The controller never uses speculative computation results — only addresses
and branch outcomes, recorded into the compressed lists.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable

from repro.branch import MISPREDICT
from repro.esp.contexts import PreExecState, RecordedHints
from repro.esp.event_queue import HardwareEventQueue, QueueSlot
from repro.esp.replay import ReplayEngine
from repro.isa.instructions import (
    BLOCK_SHIFT,
    KIND_ALU,
    KIND_BRANCH,
    KIND_IBRANCH,
    KIND_LOAD,
    KIND_STORE,
)
from repro.memory.cachelet import CacheletPair
from repro.sim.config import EspBpMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.branch import PentiumMPredictor
    from repro.isa.stream import PackedStream
    from repro.memory import MemoryHierarchy
    from repro.sim.config import SimConfig
    from repro.sim.results import EspStats


class EspController:
    """Drives speculative pre-execution and hint recording."""

    def __init__(self, config: "SimConfig", hierarchy: "MemoryHierarchy",
                 predictor: "PentiumMPredictor", stats: "EspStats",
                 spec_stream_provider: "Callable[[int], PackedStream]",
                 handler_addr_provider: Callable[[int], int],
                 n_events: int,
                 predicted_provider: "Callable[[int], list[int]] | None"
                 = None) -> None:
        self.config = config
        self.esp = config.esp
        self.core = config.core
        self.hierarchy = hierarchy
        self.predictor = predictor
        self.stats = stats
        self._spec_stream = spec_stream_provider
        self._handler_addr = handler_addr_provider
        self.n_events = n_events
        #: position -> predicted next event indices (multi-queue runtimes,
        #: Section 4.5); None means in-order execution with perfect
        #: prediction
        self._predicted = predicted_provider
        depth = self.esp.depth
        self.queue = HardwareEventQueue(depth)
        if not self.esp.naive:
            self.i_cachelets = CacheletPair(
                self.esp.i_cachelet_bytes[:depth], self.esp.cachelet_assoc,
                unbounded=self.esp.ideal, side="i")
            self.d_cachelets = CacheletPair(
                self.esp.d_cachelet_bytes[:depth], self.esp.cachelet_assoc,
                unbounded=self.esp.ideal, side="d")
        else:
            self.i_cachelets = None
            self.d_cachelets = None
        self.replay = ReplayEngine(self.esp, hierarchy, predictor, stats)
        self.stats.pre_instructions = [0] * depth
        #: per-event distinct I-blocks per mode, for the Figure 13 study:
        #: dicts {mode: distinct blocks}, filled only while
        #: ``collect_working_sets`` is on (the simulator sets it from its
        #: own flag before running)
        self.collect_working_sets = False
        self.i_working_sets: list[dict[int, int]] = []
        self._ras_dirty = False
        # naive-mode fill tracking for the prematurity-decay substitution
        # (see EspConfig.naive_l1_decay): blocks fetched straight into the
        # hierarchy for future events, pending their boundary decay.
        self._naive_fills: list[tuple[str, int]] = []
        self._decay_rng = random.Random("naive-fill-decay")

    # -- event lifecycle -----------------------------------------------------

    def begin_event(self, event_index: int, cycle: int,
                    position: int | None = None) -> None:
        """The looper dequeued ``event_index``; rotate the window and arm
        replay with the hints recorded for it.

        ``position`` is the schedule position (defaults to ``event_index``
        for the in-order single-queue case). If the dequeued hardware slot
        was pre-executing a *different* event — the runtime's order
        prediction was wrong — the incorrect-prediction bit fires and the
        stale hints are discarded (Section 4.5).
        """
        if position is None:
            position = event_index
        head = self.queue.dequeue()
        if head is not None and head.event_index != event_index:
            # the hardware queue held the wrong event: suppress its hints
            head.incorrect_prediction = True
            self.stats.order_mispredictions += 1
        if self.esp.naive:
            self._decay_naive_fills()
        else:
            self.i_cachelets.promote()
            self.d_cachelets.promote()
        # re-home surviving slots' lists into their new (larger) budgets
        for mode, slot in enumerate(self.queue.slots):
            if slot is not None and slot.state is not None \
                    and slot.state.hints is not None:
                slot.state.hints = slot.state.hints.promote(self.esp, mode)
                # the promoted budgets are larger; recording may resume
                slot.state.exhausted = False
        # expose the runtime's (predicted) next events to the hardware queue
        if self._predicted is not None:
            predicted = [idx for idx in self._predicted(position)
                         if 0 <= idx < self.n_events][:self.esp.depth]
        else:
            predicted = list(range(event_index + 1,
                                   min(event_index + 1 + self.esp.depth,
                                       self.n_events)))
        self._reconcile_queue(predicted)

        hints = None
        if head is not None and head.state is not None and head.eu \
                and not head.incorrect_prediction:
            state = head.state
            hints = state.hints
            if state.i_touched_by_mode is not None:
                self.i_working_sets.append(
                    {m: len(s) for m, s in state.i_touched_by_mode.items()})
            if state.bp_replica is not None and \
                    self.esp.bp_mode is EspBpMode.SEPARATE_TABLES:
                # the replica warmed during pre-execution supplies the
                # normal execution's tables from here on
                self._adopt_replica(state.bp_replica)
        self.replay.attach(hints, cycle)

    def _reconcile_queue(self, predicted: list[int]) -> None:
        """Make the hardware queue reflect the runtime's current
        prediction, preserving pre-execution state for events that are
        still predicted (possibly at a different position)."""
        existing = {slot.event_index: slot
                    for slot in self.queue.slots if slot is not None}
        new_slots = []
        for idx in predicted:
            slot = existing.get(idx)
            if slot is None:
                slot = QueueSlot(idx, self._handler_addr(idx))
            new_slots.append(slot)
        new_slots += [None] * (self.queue.depth - len(new_slots))
        self.queue.slots = new_slots[:self.queue.depth]

    def _decay_naive_fills(self) -> None:
        """Boundary decay of naive-mode fills (scaling substitution).

        The paper's naive design prefetches "too early": by the time the
        pre-executed event runs, a full event's worth of traffic — an order
        of magnitude more than these scaled traces generate — has cycled
        L1 and a good part of L2. Apply that missing eviction pressure
        probabilistically and deterministically.
        """
        esp = self.esp
        rng = self._decay_rng
        hierarchy = self.hierarchy
        for side, block in self._naive_fills:
            l1 = hierarchy.l1i if side == "i" else hierarchy.l1d
            if l1.contains(block):
                # still L1-resident a whole event later: the block is in
                # active use (shared library / hot data) and would have
                # survived the paper-scale traffic too
                continue
            if rng.random() < esp.naive_l2_decay:
                hierarchy.l2.invalidate(block)
        self._naive_fills.clear()

    def _adopt_replica(self, replica: "PentiumMPredictor") -> None:
        live = self.predictor
        replica.predictions = live.predictions
        replica.mispredictions = live.mispredictions
        replica._ras = list(live._ras)
        replica.pir = live.pir
        # in-place adoption so every component keeps its reference
        live._global_tags = replica._global_tags
        live._global_ctr = replica._global_ctr
        live._local_hist = replica._local_hist
        live._local_ctr = replica._local_ctr
        live._loops = replica._loops
        live._btb = replica._btb
        live._ibtb = replica._ibtb

    # -- stall handling --------------------------------------------------------

    def on_stall(self, cycle: int, budget: float) -> None:
        """Spend an exposed LLC-miss stall of ``budget`` cycles pre-executing
        queued events."""
        esp = self.esp
        if budget < esp.min_stall_cycles:
            return
        # the queue is only rotated at event boundaries (begin_event)
        slots = self.queue.slots
        if not any(slots):
            return  # nothing queued: no sneak peek possible
        self.stats.mode_entries += 1
        switch_penalty = self.core.context_switch_penalty
        budget -= switch_penalty
        depth = esp.depth
        # Walk ESP-1 -> ESP-2 -> ... as Figure 4 describes; if the deepest
        # mode ends with budget to spare, circle back to shallower modes
        # whose own misses have resolved by then. The progress flag guards
        # against spinning when every queued event is done.
        progress = True
        while budget > 0 and progress:
            progress = False
            mode = 0
            while budget > 0 and mode < depth:
                slot = slots[mode]
                if slot is None:
                    mode += 1
                    continue
                state = slot.state
                if not slot.eu:
                    state = self._ensure_started(slot, mode)
                if state.finished or state.exhausted:
                    mode += 1
                    continue
                before = state.position
                deeper_exists = (mode + 1 < depth
                                 and slots[mode + 1] is not None)
                budget, deeper = self._run_slot(slot, mode, budget, cycle,
                                                deeper_exists)
                if state.position > before or deeper:
                    # a jump still made progress: it initiated the fetch the
                    # next visit resumes past
                    progress = True
                if deeper or state.finished or state.exhausted:
                    mode += 1
                    budget -= switch_penalty
                else:
                    progress = False
                    break  # budget exhausted mid-slot
            else:
                continue
            break
        if self._ras_dirty:
            # pre-execution pushed speculative frames (Section 4.1)
            self.predictor.clear_ras()
            self._ras_dirty = False

    def _ensure_started(self, slot, mode: int) -> PreExecState:
        """Attach a pre-execution context to ``slot`` and start it (set its
        EU bit) on the first visit."""
        if slot.state is None:
            state = PreExecState(event_index=slot.event_index)
            state.pir = self.predictor.pir
            if self.collect_working_sets:
                state.i_touched_by_mode = {}
            slot.state = state
        state = slot.state
        if not slot.eu:
            state.stream = self._spec_stream(slot.event_index)
            state.hints = RecordedHints.for_mode(self.esp, mode) \
                if not self.esp.naive else None
            if self.esp.bp_mode is EspBpMode.SEPARATE_TABLES:
                state.bp_replica = self.predictor.clone()
            slot.eu = True
        return state

    # -- the pre-execution inner loop -------------------------------------------

    def _run_slot(self, slot, mode: int, budget: float, cycle: int,
                  deeper_exists: bool) -> tuple[float, bool]:
        """Pre-execute ``slot`` until the budget runs out, the event ends, or
        an LLC miss suggests jumping one event deeper (only taken when a
        deeper queued event exists — otherwise the pre-execution simply
        waits out its own miss).

        Returns ``(remaining_budget, jump_deeper)``.

        The per-instruction state (icount, last I-block, the EspStats
        cachelet and overflow counts) lives in locals and is written back
        on exit, and the L1/L2 residency probe (what
        :meth:`MemoryHierarchy.residency_latency` answers) is two set
        lookups, inline.
        """
        esp = self.esp
        state = slot.state
        stream = state.stream
        pcs = stream.pc
        kinds = stream.kind
        addrs = stream.addr
        takens = stream.taken
        targets = stream.target
        blocks = stream.block
        pos = state.position
        n = len(stream)
        naive = esp.naive
        hierarchy = self.hierarchy
        fetch_into = hierarchy.fetch_into
        l1i = hierarchy.l1i
        l1i_sets, l1i_nsets = l1i._sets, l1i.num_sets
        l1d = hierarchy.l1d
        l1d_sets, l1d_nsets = l1d._sets, l1d.num_sets
        l2 = hierarchy.l2
        l2_sets, l2_nsets = l2._sets, l2.num_sets
        l2_latency = hierarchy.l2_latency
        base_cost = self.core.base_cpi
        mem_latency = hierarchy.mem_latency
        mispredict_penalty = self.core.mispredict_penalty
        hints = state.hints
        if hints is not None:
            i_record = hints.i_list.record
            d_record = hints.d_list.record
            b_record = hints.b_dir.record
            t_record = hints.b_tgt.record
        if not naive:
            i_access = self.i_cachelets[mode].access
            d_access = self.d_cachelets[mode].access
        touched_by_mode = state.i_touched_by_mode
        i_touched = touched_by_mode.setdefault(mode, set()) \
            if touched_by_mode is not None else None
        icount = start_icount = state.icount
        last_i_block = state.last_i_block
        stats = self.stats
        i_accesses = i_misses = d_accesses = d_misses = overflows = 0
        jump_deeper = False
        bp_mode = esp.bp_mode
        predict_only = bp_mode is EspBpMode.NONE
        naive_bp = bp_mode is EspBpMode.NAIVE
        predictor = state.bp_replica \
            if bp_mode is EspBpMode.SEPARATE_TABLES else self.predictor
        execute_branch = predictor.execute_branch
        swap_pir = bp_mode in (EspBpMode.SEPARATE_CONTEXT, EspBpMode.BLIST,
                               EspBpMode.NONE)
        saved_pir = None
        saved_ras = None
        if swap_pir:
            saved_pir = predictor.pir
            predictor.pir = state.pir
            saved_ras = predictor.snapshot_ras()
            predictor.restore_ras(state.ras)

        try:
            while budget > 0 and pos < n:
                i = pos
                block = blocks[i]
                pos += 1
                icount += 1
                budget -= base_cost

                if block != last_i_block:
                    last_i_block = block
                    if i_touched is not None:
                        i_touched.add(block)
                    if not naive:
                        i_accesses += 1
                        hit = i_access(block)
                        if hints is not None and \
                                not i_record(block, icount):
                            overflows += 1
                    if naive or not hit:
                        # the latency a fetch would see right now
                        if block in l1i_sets[block % l1i_nsets]:
                            latency = 0
                        elif block in l2_sets[block % l2_nsets]:
                            latency = l2_latency
                        else:
                            latency = mem_latency
                        if naive:
                            fetch_into("i", block)
                            self._naive_fills.append(("i", block))
                        else:
                            i_misses += 1
                    else:
                        latency = 0
                    if latency:
                        if latency >= mem_latency and deeper_exists:
                            # LLC miss on the fetch: jump deeper while it
                            # resolves. Rewind so the instruction replays
                            # (its cachelet fill survives) on re-entry.
                            pos -= 1
                            icount -= 1
                            jump_deeper = True
                            break
                        budget -= latency

                kind = kinds[i]
                if kind == KIND_ALU:
                    continue
                if kind == KIND_LOAD or kind == KIND_STORE:
                    dblock = addrs[i] >> BLOCK_SHIFT
                    if not naive:
                        d_accesses += 1
                        hit = d_access(dblock, kind == KIND_STORE)
                        if hints is not None and \
                                not d_record(dblock, icount):
                            overflows += 1
                    if naive or not hit:
                        if dblock in l1d_sets[dblock % l1d_nsets]:
                            latency = 0
                        elif dblock in l2_sets[dblock % l2_nsets]:
                            latency = l2_latency
                        else:
                            latency = mem_latency
                        if naive:
                            fetch_into("d", dblock)
                            self._naive_fills.append(("d", dblock))
                        else:
                            d_misses += 1
                    else:
                        latency = 0
                    if latency:
                        if latency >= mem_latency and deeper_exists:
                            jump_deeper = True
                            break
                        budget -= latency
                    continue

                # control flow
                pc = pcs[i]
                taken = takens[i]
                target = targets[i]
                if predict_only:
                    mispredicted = self._predict_only(
                        predictor, pc, kind, taken, target)
                else:
                    mispredicted = execute_branch(
                        pc, kind, taken, target, False) == MISPREDICT
                    if naive_bp:
                        # shared RAS picked up speculative frames; it will
                        # be cleared on exit (Section 4.1)
                        self._ras_dirty = True
                if mispredicted:
                    budget -= mispredict_penalty
                if hints is not None:
                    indirect = kind == KIND_IBRANCH
                    if kind == KIND_BRANCH or indirect:
                        if not b_record(pc, taken, indirect, target, kind,
                                        icount):
                            overflows += 1
                        if indirect and taken:
                            t_record(pc, target)
        finally:
            state.icount = icount
            state.last_i_block = last_i_block
            stats.i_cachelet_accesses += i_accesses
            stats.i_cachelet_misses += i_misses
            stats.d_cachelet_accesses += d_accesses
            stats.d_cachelet_misses += d_misses
            stats.list_overflows += overflows
            if swap_pir:
                state.pir = predictor.pir
                predictor.pir = saved_pir
                state.ras = predictor.snapshot_ras()
                predictor.restore_ras(saved_ras)

        state.position = pos
        stats.pre_instructions[mode] += icount - start_icount
        if pos >= n:
            state.finished = True
            stats.pre_complete_events += 1
        elif hints is not None and hints.i_list.overflowed \
                and hints.d_list.overflowed and hints.b_dir.overflowed:
            # every list is full: deeper pre-execution records nothing, so
            # stop burning idle cycles (and energy) on this event
            state.exhausted = True
        return budget, jump_deeper

    @staticmethod
    def _predict_only(predictor: "PentiumMPredictor", pc: int, kind: int,
                      taken: bool, target: int) -> bool:
        """Prediction without any table update (the NONE design point)."""
        if kind == KIND_BRANCH:
            return predictor.predict_direction(pc) != taken
        if kind == KIND_IBRANCH:
            return predictor.predict_target(pc, kind) != target
        return False
