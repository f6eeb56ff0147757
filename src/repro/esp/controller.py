"""The ESP controller: mode switching and speculative pre-execution.

This is the heart of the reproduction. The controller owns the hardware
event queue, the per-mode cachelets, the per-mode branch-predictor contexts,
and the recorded hint lists. The simulator calls into it at three points:

* :meth:`EspController.begin_event` — the looper dequeued an event; promote
  every queue slot one position (cachelet and list promotion, Section 4.2),
  enqueue the newly visible event, and arm the replay engine with whatever
  hints the starting event accumulated while it was being pre-executed.
* :meth:`EspController.on_stall` — the normal event exposed an LLC-miss
  stall; spend those idle cycles pre-executing queued events (ESP-1 first,
  jumping to ESP-2 when ESP-1 itself misses the LLC or ends, Section 3.2).
* :meth:`EspController.finish_event` — bookkeeping at event end.

Pre-execution is trace-driven off each event's *speculative* stream: the
stream a forked execution would observe given the shared state at pre-
execution time, which diverges from the eventual truth for ~1 % of events.
The controller never uses speculative computation results — only addresses
and branch outcomes, recorded into the compressed lists.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable

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
from repro.isa.stream import PackedStream
from repro.memory.cachelet import CacheletPair
from repro.obs.metrics import get_registry
from repro.sim.config import EspBpMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.branch import PentiumMPredictor
    from repro.isa.instructions import Instruction
    from repro.memory import MemoryHierarchy
    from repro.sim.config import SimConfig
    from repro.sim.results import EspStats


class EspController:
    """Drives speculative pre-execution and hint recording."""

    def __init__(self, config: "SimConfig", hierarchy: "MemoryHierarchy",
                 predictor: "PentiumMPredictor", stats: "EspStats",
                 spec_stream_provider:
                 "Callable[[int], PackedStream | list[Instruction]]",
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
        #: per-event working-set sizes per mode, for the Figure 13 study:
        #: lists of dicts {mode: distinct blocks}
        self.i_working_sets: list[dict[int, int]] = []
        self.d_working_sets: list[dict[int, int]] = []
        self._current_index = -1
        self._ras_dirty = False
        #: process-wide metrics registry (no-op unless enabled); stall
        #: entries and mode switches are recorded at stall granularity,
        #: never per pre-executed instruction
        self.metrics = get_registry()
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
        self._current_index = event_index
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
            self.i_working_sets.append(
                {m: len(s) for m, s in state.i_touched_by_mode.items()})
            self.d_working_sets.append(
                {m: len(s) for m, s in state.d_touched_by_mode.items()})
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

    def finish_event(self) -> None:
        """Called when the current event retires its last instruction."""
        # nothing to do beyond what begin_event of the next event performs;
        # kept as an explicit hook for symmetry and future instrumentation.

    # -- stall handling --------------------------------------------------------

    def on_stall(self, cycle: int, budget: float) -> None:
        """Spend an exposed LLC-miss stall of ``budget`` cycles pre-executing
        queued events."""
        esp = self.esp
        if budget < esp.min_stall_cycles:
            return
        if all(slot is None for slot in self.queue.slots):
            return  # nothing queued: no sneak peek possible
        self.stats.mode_entries += 1
        if self.metrics.enabled:
            self.metrics.inc("esp.context_switches")
            self.metrics.observe("esp.stall_budget_cycles", budget)
        budget -= self.core.context_switch_penalty
        # Walk ESP-1 -> ESP-2 -> ... as Figure 4 describes; if the deepest
        # mode ends with budget to spare, circle back to shallower modes
        # whose own misses have resolved by then. The progress flag guards
        # against spinning when every queued event is done.
        progress = True
        while budget > 0 and progress:
            progress = False
            mode = 0
            while budget > 0 and mode < esp.depth:
                slot = self.queue.slot(mode)
                if slot is None:
                    mode += 1
                    continue
                state = self._ensure_started(slot, mode)
                if state.finished or state.exhausted:
                    mode += 1
                    continue
                before = state.position
                deeper_exists = (mode + 1 < esp.depth
                                 and self.queue.slot(mode + 1) is not None)
                budget, deeper = self._run_slot(slot, mode, budget, cycle,
                                                deeper_exists)
                if state.position > before or deeper:
                    # a jump still made progress: it initiated the fetch the
                    # next visit resumes past
                    progress = True
                if deeper or state.finished or state.exhausted:
                    mode += 1
                    budget -= self.core.context_switch_penalty
                    if self.metrics.enabled:
                        self.metrics.inc("esp.context_switches")
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
        if slot.state is None:
            state = PreExecState(event_index=slot.event_index)
            state.pir = self.predictor.pir
            slot.state = state
        state = slot.state
        if not slot.eu:
            stream = self._spec_stream(slot.event_index)
            if not isinstance(stream, PackedStream):
                # providers may hand back plain Instruction lists
                stream = PackedStream.from_instructions(stream)
            state.stream = stream
            state.hints = RecordedHints.for_mode(self.esp, mode) \
                if not self.esp.naive else None
            if self.esp.bp_mode is EspBpMode.SEPARATE_TABLES:
                state.bp_replica = self.predictor.clone()
            slot.eu = True
            state.started = True
        return state

    # -- the pre-execution inner loop -------------------------------------------

    def _run_slot(self, slot, mode: int, budget: float, cycle: int,
                  deeper_exists: bool) -> tuple[float, bool]:
        """Pre-execute ``slot`` until the budget runs out, the event ends, or
        an LLC miss suggests jumping one event deeper (only taken when a
        deeper queued event exists — otherwise the pre-execution simply
        waits out its own miss).

        Returns ``(remaining_budget, jump_deeper)``.
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
        base_cost = self.core.base_cpi
        mem_latency = hierarchy.mem_latency
        mispredict_penalty = self.core.mispredict_penalty
        hints = state.hints
        i_cachelet = self.i_cachelets[mode] if not naive else None
        d_cachelet = self.d_cachelets[mode] if not naive else None
        i_touched = state.i_touched_by_mode.setdefault(mode, set())
        d_touched = state.d_touched_by_mode.setdefault(mode, set())
        pre_count = 0
        jump_deeper = False
        bp_mode = esp.bp_mode
        predictor = state.bp_replica \
            if bp_mode is EspBpMode.SEPARATE_TABLES else self.predictor
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
                state.icount += 1
                pre_count += 1
                budget -= base_cost

                if block != state.last_i_block:
                    state.last_i_block = block
                    i_touched.add(block)
                    if naive:
                        latency = hierarchy.residency_latency("i", block)
                        hierarchy.fetch_into("i", block)
                        self._naive_fills.append(("i", block))
                    else:
                        self.stats.i_cachelet_accesses += 1
                        if i_cachelet.access(block):
                            latency = 0
                        else:
                            self.stats.i_cachelet_misses += 1
                            latency = hierarchy.residency_latency("i", block)
                        if hints is not None and \
                                not hints.i_list.record(block, state.icount):
                            self.stats.list_overflows += 1
                    if latency:
                        if latency >= mem_latency and deeper_exists:
                            # LLC miss on the fetch: jump deeper while it
                            # resolves. Rewind so the instruction replays
                            # (its cachelet fill survives) on re-entry.
                            pos -= 1
                            state.icount -= 1
                            pre_count -= 1
                            jump_deeper = True
                            break
                        budget -= latency

                kind = kinds[i]
                if kind == KIND_ALU:
                    continue
                if kind == KIND_LOAD or kind == KIND_STORE:
                    dblock = addrs[i] >> BLOCK_SHIFT
                    d_touched.add(dblock)
                    if naive:
                        latency = hierarchy.residency_latency("d", dblock)
                        hierarchy.fetch_into("d", dblock)
                        self._naive_fills.append(("d", dblock))
                    else:
                        self.stats.d_cachelet_accesses += 1
                        if d_cachelet.access(dblock, kind == KIND_STORE):
                            latency = 0
                        else:
                            self.stats.d_cachelet_misses += 1
                            latency = hierarchy.residency_latency("d", dblock)
                        if hints is not None and \
                                not hints.d_list.record(dblock, state.icount):
                            self.stats.list_overflows += 1
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
                if bp_mode is EspBpMode.NONE:
                    mispredicted = self._predict_only(
                        predictor, pc, kind, taken, target)
                else:
                    outcome = predictor.execute_branch(
                        pc, kind, taken, target, count=False)
                    mispredicted = outcome.mispredicted
                    if bp_mode is EspBpMode.NAIVE:
                        # shared RAS picked up speculative frames; it will
                        # be cleared on exit (Section 4.1)
                        self._ras_dirty = True
                if mispredicted:
                    budget -= mispredict_penalty
                if hints is not None:
                    indirect = kind == KIND_IBRANCH
                    if kind == KIND_BRANCH or indirect:
                        if not hints.b_dir.record(pc, taken, indirect,
                                                  target, kind,
                                                  state.icount):
                            self.stats.list_overflows += 1
                        if indirect and taken:
                            hints.b_tgt.record(pc, target)
        finally:
            if swap_pir:
                state.pir = predictor.pir
                predictor.pir = saved_pir
                state.ras = predictor.snapshot_ras()
                predictor.restore_ras(saved_ras)

        state.position = pos
        self.stats.pre_instructions[mode] += pre_count
        if pos >= n:
            state.finished = True
            self.stats.pre_complete_events += 1
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
