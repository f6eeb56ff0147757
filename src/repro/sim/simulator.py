"""The top-level trace-driven simulator.

One :class:`Simulator` runs one application trace through one machine
configuration and produces a :class:`~repro.sim.results.SimResult`. The
per-instruction accounting follows Section 5's machine (Figure 7) via the
interval model described in ``DESIGN.md``:

* every retired instruction costs ``core.base_cpi`` cycles;
* a new I-cache block pays its hierarchy latency minus the fetch-queue
  hide; an I-side LLC miss is an ESP trigger;
* loads/stores pay the exposed portion of their latency per the
  ROB-overlap/MLP rules (:class:`~repro.core.DataStallModel`); a data LLC
  miss at the ROB head is the canonical ESP/runahead trigger;
* mispredicted branches pay the 15-cycle flush, BTB misses on unconditional
  direct branches a short decode bubble.

The per-instruction loop has two implementations that produce
bit-identical results: the *packed path* (the default) walks
:class:`~repro.isa.stream.PackedStream` struct-of-arrays with locals-bound
counters — roughly half the interpreter overhead per retired instruction;
the *object path* walks ``list[Instruction]`` streams and is kept as the
test oracle the equivalence tests compare against (``kernel="object"``).

Exposed LLC-miss stalls are handed to the configured side path — the ESP
controller (pre-execute queued events) or the runahead controller
(pre-execute the same stream) — which spends the idle cycles gathering
prefetch/branch information.

Simulations run a cache/predictor warm-up prefix (default: the first 12 % of
events, at least 4) before measurement begins, standard methodology to keep
the scaled-down traces' cold-start from swamping steady-state behaviour.
"""

from __future__ import annotations

from repro.branch import BUBBLE, MISPREDICT, PentiumMPredictor
from repro.core import DataStallModel
from repro.esp import EspController
from repro.esp.replay import NEVER
from repro.isa.instructions import (
    BLOCK_SHIFT,
    KIND_ALU,
    KIND_BRANCH,
    KIND_CALL,
    KIND_IBRANCH,
    KIND_LOAD,
    KIND_RETURN,
    KIND_STORE,
)
from repro.isa.stream import PackedStream
from repro.memory import MemoryHierarchy
from repro.obs.metrics import get_registry
from repro.prefetch import (
    DcuPrefetcher,
    EfetchPrefetcher,
    NextLineIPrefetcher,
    PifPrefetcher,
    StridePrefetcher,
)
from repro.runahead import RunaheadController
from repro.sim.config import SimConfig
from repro.sim.results import EventProfile, SimResult
from repro.workloads.apps import AppProfile
from repro.workloads.generator import EventTrace

#: the hot-loop implementations :class:`Simulator` accepts as ``kernel``
KERNEL_NAMES = ("object", "packed")


class Simulator:
    """Runs one (trace, configuration) pair."""

    def __init__(self, trace: EventTrace | AppProfile, config: SimConfig,
                 scale: float = 1.0, seed: int = 0,
                 schedule=None, kernel: str = "packed") -> None:
        """``schedule`` (an :class:`~repro.runtime.ExecutionSchedule`)
        replays the trace's events in an arbitrary runtime-decided order
        with explicit next-event predictions — the multi-queue extension of
        Section 4.5. Omitted: in-order execution with perfect prediction.

        ``kernel`` names the hot loop: ``"packed"`` (the default) or
        ``"object"``, the bit-identical reference the equivalence tests
        compare against.
        """
        if isinstance(trace, AppProfile):
            trace = EventTrace(trace, scale=scale, seed=seed)
        self.trace = trace
        self.schedule = schedule
        self.config = config
        if kernel not in KERNEL_NAMES:
            raise ValueError(f"unknown kernel {kernel!r} "
                             f"(expected one of {', '.join(KERNEL_NAMES)})")
        self.kernel = kernel
        self.hierarchy = MemoryHierarchy(config.memory)
        self.predictor = PentiumMPredictor(config.branch)
        self.result = SimResult(app=trace.profile.name, config=config.name)
        self.stall_model = DataStallModel(config.core)

        pf = config.prefetch
        self.nl_i = NextLineIPrefetcher(pf.next_line_i_degree) \
            if pf.next_line_i else None
        self.dcu = DcuPrefetcher(pf.dcu_trigger) if pf.next_line_d else None
        self.stride = StridePrefetcher(pf.stride_entries) if pf.stride \
            else None
        self.efetch = EfetchPrefetcher(
            pf.efetch_contexts, pf.efetch_blocks_per_context) \
            if pf.efetch else None
        self.pif = PifPrefetcher(pf.pif_history_entries,
                                 pf.pif_replay_degree) if pf.pif else None

        self.esp: EspController | None = None
        self.runahead: RunaheadController | None = None
        if config.esp.enabled:
            image = trace.image

            def handler_addr(index: int) -> int:
                return image.function(trace.handler_fid(index)).entry.addr

            def spec_stream(index: int) -> PackedStream:
                return trace.event(index).packed_spec()

            predicted_provider = None
            if schedule is not None:
                depth = config.esp.depth

                def predicted_provider(position: int) -> list[int]:
                    return schedule.predicted_next(position, depth)

            self.esp = EspController(
                config, self.hierarchy, self.predictor, self.result.esp,
                spec_stream_provider=spec_stream,
                handler_addr_provider=handler_addr,
                n_events=len(trace),
                predicted_provider=predicted_provider)
        elif config.runahead.enabled:
            self.runahead = RunaheadController(
                config, self.hierarchy, self.predictor, self.result.esp)

        #: per-event distinct I-blocks touched in normal mode (Figure 13's
        #: "Normal" bars), and per ESP mode in ``esp.i_working_sets``;
        #: populated when ``collect_working_sets`` is on.
        self.normal_i_working_sets: list[int] = []
        self.collect_working_sets = False
        #: per-event cycle/stall timeline; populated (measured events only)
        #: when ``collect_event_profile`` is on.
        self.event_profiles: list = []
        self.collect_event_profile = False

    # -- measurement control ---------------------------------------------------

    def _reset_measurement(self) -> None:
        """Zero the measured counters at the warm-up boundary, keeping all
        microarchitectural state (caches, predictor, ESP contexts) warm."""
        r = self.result
        r.instructions = 0
        r.cycles = 0.0
        r.events = 0
        r.l1i_accesses = r.l1i_misses = r.llc_i_misses = 0
        r.l1d_accesses = r.l1d_misses = r.llc_d_misses = 0
        r.branches = r.branch_mispredicts = 0
        r.stall_ifetch = r.stall_data = r.stall_branch = 0.0
        r.prefetches_issued_i = r.prefetches_useful_i = 0
        r.prefetches_late_i = 0
        r.prefetches_issued_d = r.prefetches_useful_d = 0
        r.prefetches_late_d = 0
        esp = r.esp
        esp.mode_entries = 0
        esp.pre_instructions = [0] * len(esp.pre_instructions)
        esp.pre_complete_events = 0
        esp.hinted_events = 0
        esp.diverged_events = 0
        esp.list_overflows = 0
        esp.list_prefetches_i = esp.list_prefetches_d = 0
        esp.blist_trained = 0
        esp.dirty_evictions = 0
        esp.i_cachelet_accesses = esp.i_cachelet_misses = 0
        esp.d_cachelet_accesses = esp.d_cachelet_misses = 0
        if self.esp is not None:
            # pre_instructions list object is shared with the controller
            self.esp.stats = esp
        for side in ("i", "d"):
            stats = self.hierarchy.prefetch_stats(side)
            stats.issued = stats.useful = stats.late = stats.useless = 0

    # -- main loop ---------------------------------------------------------------

    def run(self, warmup_fraction: float = 0.2,
            max_events: int | None = None) -> SimResult:
        """Simulate the trace and return the measured statistics."""
        trace = self.trace
        config = self.config
        result = self.result
        predictor = self.predictor
        esp = self.esp
        replay = esp.replay if esp is not None else None
        if esp is not None:
            esp.collect_working_sets = self.collect_working_sets

        if self.schedule is not None:
            order = list(self.schedule.order)
        else:
            order = list(range(len(trace)))
        if max_events is not None:
            order = order[:max_events]
        n_events = len(order)
        warmup_events = min(max(4, round(n_events * warmup_fraction)),
                            max(0, n_events - 1))

        fast_path = self.kernel == "packed"

        cycle = 0.0
        cycle_offset = 0.0
        cur_block = -1

        for position in range(n_events):
            k = order[position]
            if position == warmup_events:
                self._reset_measurement()
                predictor.predictions = 0
                predictor.mispredictions = 0
                # keep the clock monotonic: timestamps (prefetch ready
                # times, outstanding-miss windows) are absolute
                cycle_offset = cycle
            if esp is not None:
                esp.begin_event(k, int(cycle), position=position)
            event_start = (cycle, result.instructions, result.stall_ifetch,
                           result.stall_data, result.stall_branch)
            event = trace.event(k)
            if event.diverged:
                result.esp.diverged_events += 1
            wset_i: set[int] | None = set() \
                if self.collect_working_sets else None

            if fast_path:
                cycle, cur_block = self._run_streams_packed(
                    (trace.packed_looper_stream(k), event.packed_true()),
                    cycle, cur_block, wset_i)
            else:
                cycle, cur_block = self._run_streams_object(
                    k, event, cycle, cur_block, wset_i)

            result.events += 1
            if self.collect_event_profile and position >= warmup_events:
                self.event_profiles.append(EventProfile(
                    event_index=k,
                    instructions=result.instructions - event_start[1],
                    cycles=cycle - event_start[0],
                    stall_ifetch=result.stall_ifetch - event_start[2],
                    stall_data=result.stall_data - event_start[3],
                    stall_branch=result.stall_branch - event_start[4],
                    hinted=replay.active if replay is not None else False))
            if wset_i is not None:
                self.normal_i_working_sets.append(len(wset_i))

        hierarchy = self.hierarchy
        result.cycles = cycle - cycle_offset
        # fold in the hierarchy's prefetch-effectiveness counters
        i_stats = hierarchy.prefetch_stats("i")
        d_stats = hierarchy.prefetch_stats("d")
        result.prefetches_issued_i = i_stats.issued
        result.prefetches_useful_i = i_stats.useful
        result.prefetches_late_i = i_stats.late
        result.prefetches_issued_d = d_stats.issued
        result.prefetches_useful_d = d_stats.useful
        result.prefetches_late_d = d_stats.late

        from repro.energy import compute_energy

        result.energy = compute_energy(result, config)
        registry = get_registry()
        if registry.enabled:
            self._publish_metrics(registry)
        return result

    def _publish_metrics(self, registry) -> None:
        """Fold this run's counters into the metrics registry.

        Called once per run, and only when metrics are enabled — the
        no-op default costs the hot loop nothing beyond one attribute
        check after the final event retires.
        """
        r = self.result
        registry.inc("sim.runs")
        registry.inc(f"sim.kernel.{self.kernel}")
        registry.inc("sim.instructions", r.instructions)
        registry.inc("sim.cycles", int(r.cycles))
        registry.inc("sim.events", r.events)
        registry.observe("sim.ipc", r.ipc)
        registry.inc("branch.executed", r.branches)
        registry.inc("branch.mispredicts", r.branch_mispredicts)
        registry.inc("prefetch.i.issued", r.prefetches_issued_i)
        registry.inc("prefetch.i.useful", r.prefetches_useful_i)
        registry.inc("prefetch.i.late", r.prefetches_late_i)
        registry.inc("prefetch.d.issued", r.prefetches_issued_d)
        registry.inc("prefetch.d.useful", r.prefetches_useful_d)
        registry.inc("prefetch.d.late", r.prefetches_late_d)
        esp = r.esp
        registry.inc("esp.mode_entries", esp.mode_entries)
        registry.inc("esp.pre_instructions", esp.total_pre_instructions)
        registry.inc("esp.hinted_events", esp.hinted_events)
        registry.inc("esp.diverged_events", esp.diverged_events)
        self.hierarchy.publish_metrics(registry)
        for prefetcher in (self.nl_i, self.dcu, self.stride, self.efetch,
                           self.pif):
            if prefetcher is not None:
                for name, value in prefetcher.metrics_snapshot().items():
                    registry.set_gauge(name, value)

    # -- packed fast path --------------------------------------------------------

    def _run_streams_packed(self, streams, cycle: float, cur_block: int,
                            wset_i: set | None) -> tuple[float, int]:
        """Execute one event's (looper, true) streams in packed form.

        Mirrors the object loop in :meth:`run` operation for operation —
        including floating-point accumulation order — so results are
        bit-identical. Counters are bound to locals and written back to the
        result once per event; ``streams`` is a (packed looper, packed true
        stream) pair. Returns the updated ``(cycle, cur_block)``.
        """
        config = self.config
        core = config.core
        result = self.result
        hierarchy = self.hierarchy
        stall_model = self.stall_model
        esp = self.esp
        runahead = self.runahead
        replay = esp.replay if esp is not None else None
        if replay is not None and not replay.active:
            # `active` is constant for the whole event (set only by
            # attach(), before the kernel runs) and inactive means every
            # entry list is empty — poll/before_branch would be no-ops, so
            # drop the engine instead of calling into it per block/branch
            replay = None
        replay_poll = replay.poll if replay is not None else None
        replay_before_branch = replay.before_branch \
            if replay is not None else None
        # poll() returns the event icount at which its next list entry
        # falls due, before_branch() the recordable-branch index at which
        # it next trains or installs; a call before then does nothing, so
        # it is skipped
        replay_due = replay.due if replay is not None else NEVER
        branch_due = replay.branch_due if replay is not None else NEVER
        nl_i, dcu, stride = self.nl_i, self.dcu, self.stride
        efetch, pif = self.efetch, self.pif

        perfect = config.perfect
        perfect_i = perfect.l1i
        perfect_d = perfect.l1d
        perfect_b = perfect.branch

        base_cpi = core.base_cpi
        fetch_hide = core.fetch_hide_cycles
        long_latency = hierarchy.l2_latency
        mispredict_penalty = core.mispredict_penalty
        bubble_penalty = core.btb_bubble_penalty
        issue_prefetch = hierarchy.prefetch
        exposed_of = stall_model.exposed
        execute_branch = self.predictor.execute_branch

        # the L1 demand lookup (recency + stats, per SetAssocCache.lookup)
        # is inlined below so the hit majority costs one set probe and no
        # AccessResult; misses continue in MemoryHierarchy.miss_after_l1.
        # Nothing else touches the L1 demand counters inside an event (ESP
        # pre-execution probes via contains() and fills via fill()), so
        # they are locals here and written back with the rest.
        l1i = hierarchy.l1i
        l1i_sets = l1i._sets
        l1i_nsets = l1i.num_sets
        l1d = hierarchy.l1d
        l1d_sets = l1d._sets
        l1d_nsets = l1d.num_sets
        miss_after_l1 = hierarchy.miss_after_l1
        l1i_stats = l1i.stats
        l1d_stats = l1d.stats
        c1i_accesses = l1i_stats.accesses
        c1i_misses = l1i_stats.misses
        c1d_accesses = l1d_stats.accesses
        c1d_misses = l1d_stats.misses

        # NextLineIPrefetcher.observe / DcuPrefetcher.observe are inlined
        # below (same transitions, no per-access call or list); their state
        # is only ever advanced by this loop, so the DCU streak lives in
        # locals until the write-back
        nl_i_degree = nl_i.degree if nl_i is not None else 0
        nl_last = nl_i._last_block if nl_i is not None else None
        if dcu is not None:
            dcu_trigger = dcu.trigger
            dcu_streak_block = dcu._streak_block
            dcu_streak = dcu._streak
            dcu_armed_for = dcu._armed_for

        instructions = result.instructions
        l1i_accesses = result.l1i_accesses
        l1i_misses = result.l1i_misses
        llc_i_misses = result.llc_i_misses
        stall_ifetch = result.stall_ifetch
        l1d_accesses = result.l1d_accesses
        l1d_misses = result.l1d_misses
        llc_d_misses = result.llc_d_misses
        stall_data = result.stall_data
        branches = result.branches
        branch_mispredicts = result.branch_mispredicts
        stall_branch = result.stall_branch
        event_branches = 0
        # the object loop's per-instruction counter starts at -len(looper);
        # here it is derived from the retired-instruction count on demand
        icount_base = instructions + len(streams[0])

        for packed in streams:
            pcs = packed.pc
            kinds = packed.kind
            addrs = packed.addr
            takens = packed.taken
            targets = packed.target

            for pos, block in enumerate(packed.block):
                instructions += 1
                cycle += base_cpi

                # ---- instruction fetch ----
                if block != cur_block:
                    cur_block = block
                    if wset_i is not None:
                        wset_i.add(block)
                    if instructions - icount_base >= replay_due:
                        replay_due = replay_poll(instructions - icount_base,
                                                 int(cycle))
                    if not perfect_i:
                        l1i_accesses += 1
                        c1i_accesses += 1
                        cache_set = l1i_sets[block % l1i_nsets]
                        if block in cache_set:
                            cache_set.move_to_end(block)
                        else:
                            c1i_misses += 1
                            res = miss_after_l1("i", block, int(cycle))
                            if not (res.prefetched and res.latency == 0):
                                l1i_misses += 1
                                exposed = res.latency - fetch_hide
                                if exposed > 0:
                                    cycle += exposed
                                    stall_ifetch += exposed
                                    if res.llc_miss:
                                        llc_i_misses += 1
                                    if res.llc_miss or \
                                            res.latency > long_latency:
                                        if esp is not None:
                                            esp.on_stall(int(cycle),
                                                         exposed)
                        if nl_i is not None and block != nl_last:
                            nl_last = block
                            pb = block
                            for _ in range(nl_i_degree):
                                pb += 1
                                # prefetch() of an L1-resident block
                                # returns False with no side effect
                                if pb not in l1i_sets[pb % l1i_nsets]:
                                    issue_prefetch("i", pb, int(cycle))
                        if pif is not None:
                            for pb in pif.observe(pcs[pos], block):
                                issue_prefetch("i", pb, int(cycle))
                        if efetch is not None:
                            efetch.observe(pcs[pos], block)

                kind = kinds[pos]
                if kind == KIND_ALU:
                    continue

                # ---- data access ----
                if kind == KIND_LOAD or kind == KIND_STORE:
                    dblock = addrs[pos] >> BLOCK_SHIFT
                    l1d_accesses += 1
                    if not perfect_d:
                        c1d_accesses += 1
                        cache_set = l1d_sets[dblock % l1d_nsets]
                        if dblock in cache_set:
                            cache_set.move_to_end(dblock)
                        else:
                            c1d_misses += 1
                            res = miss_after_l1("d", dblock, int(cycle))
                            if not (res.prefetched
                                    and res.latency == 0):
                                l1d_misses += 1
                                long_stall = res.llc_miss or \
                                    res.latency > long_latency
                                exposed = exposed_of(
                                    instructions, cycle, res.latency,
                                    long_stall)
                                if exposed > 0:
                                    cycle += exposed
                                    stall_data += exposed
                                if res.llc_miss:
                                    llc_d_misses += 1
                                if long_stall and exposed > 0:
                                    if esp is not None:
                                        esp.on_stall(int(cycle), exposed)
                                    elif runahead is not None:
                                        runahead.on_stall(
                                            packed, pos + 1, int(cycle),
                                            exposed)
                        if dcu is not None:
                            if dblock == dcu_streak_block:
                                dcu_streak += 1
                            else:
                                dcu_streak_block = dblock
                                dcu_streak = 1
                            if dcu_streak == dcu_trigger \
                                    and dcu_armed_for != dblock:
                                dcu_armed_for = dblock
                                issue_prefetch("d", dblock + 1,
                                               int(cycle))
                        if stride is not None:
                            for pb in stride.observe(pcs[pos], addrs[pos]):
                                issue_prefetch("d", pb, int(cycle))
                    continue

                # ---- control flow ----
                branches += 1
                if perfect_b:
                    continue
                if kind == KIND_BRANCH or kind == KIND_IBRANCH:
                    event_branches += 1
                    if event_branches >= branch_due:
                        branch_due = replay_before_branch(event_branches)
                taken = takens[pos]
                if efetch is not None:
                    if kind == KIND_CALL or (kind == KIND_IBRANCH
                                             and taken):
                        for pb in efetch.on_call(targets[pos]):
                            issue_prefetch("i", pb, int(cycle))
                    elif kind == KIND_RETURN:
                        for pb in efetch.on_return():
                            issue_prefetch("i", pb, int(cycle))
                flags = execute_branch(pcs[pos], kind, taken, targets[pos])
                if flags:
                    if flags == MISPREDICT:
                        branch_mispredicts += 1
                        cycle += mispredict_penalty
                        stall_branch += mispredict_penalty
                    else:
                        cycle += bubble_penalty
                        stall_branch += bubble_penalty

        l1i_stats.accesses = c1i_accesses
        l1i_stats.misses = c1i_misses
        l1d_stats.accesses = c1d_accesses
        l1d_stats.misses = c1d_misses
        if nl_i is not None:
            nl_i._last_block = nl_last
        if dcu is not None:
            dcu._streak_block = dcu_streak_block
            dcu._streak = dcu_streak
            dcu._armed_for = dcu_armed_for
        result.instructions = instructions
        result.l1i_accesses = l1i_accesses
        result.l1i_misses = l1i_misses
        result.llc_i_misses = llc_i_misses
        result.stall_ifetch = stall_ifetch
        result.l1d_accesses = l1d_accesses
        result.l1d_misses = l1d_misses
        result.llc_d_misses = llc_d_misses
        result.stall_data = stall_data
        result.branches = branches
        result.branch_mispredicts = branch_mispredicts
        result.stall_branch = stall_branch
        return cycle, cur_block

    # -- object-stream compatibility path ----------------------------------------

    def _run_streams_object(self, k: int, event, cycle: float,
                            cur_block: int, wset_i: set | None
                            ) -> tuple[float, int]:
        """Execute one event's (looper, true) streams as ``Instruction``
        objects — the compatibility reference the packed path is tested
        against. Returns the updated ``(cycle, cur_block)``.
        """
        trace = self.trace
        config = self.config
        core = config.core
        result = self.result
        hierarchy = self.hierarchy
        predictor = self.predictor
        stall_model = self.stall_model
        esp = self.esp
        runahead = self.runahead
        replay = esp.replay if esp is not None else None
        nl_i, dcu, stride = self.nl_i, self.dcu, self.stride
        efetch, pif = self.efetch, self.pif

        perfect = config.perfect
        perfect_i = perfect.l1i
        perfect_d = perfect.l1d
        perfect_b = perfect.branch

        base_cpi = core.base_cpi
        fetch_hide = core.fetch_hide_cycles
        # stalls longer than an L2 hit behave like outstanding memory
        # accesses: they overlap within the ROB window (MLP) and are worth
        # jumping ahead over
        long_latency = hierarchy.l2_latency
        mispredict_penalty = core.mispredict_penalty
        bubble_penalty = core.btb_bubble_penalty

        looper = trace.looper_stream(k)
        icount = -len(looper)
        event_branches = 0
        for stream in (looper, event.true_stream):
            # what runahead pre-executes, packed at its first period
            packed = None
            pos = 0
            n = len(stream)
            while pos < n:
                inst = stream[pos]
                pos += 1
                icount += 1
                result.instructions += 1
                cycle += base_cpi

                # ---- instruction fetch ----
                block = inst.pc >> BLOCK_SHIFT
                if block != cur_block:
                    cur_block = block
                    if wset_i is not None:
                        wset_i.add(block)
                    if replay is not None:
                        replay.poll(icount, int(cycle))
                    if not perfect_i:
                        result.l1i_accesses += 1
                        res = hierarchy.access_i(block, int(cycle))
                        # a timely prefetch makes the access a hit;
                        # a late one is still a (shortened) miss
                        if not res.l1_hit and \
                                not (res.prefetched and res.latency == 0):
                            result.l1i_misses += 1
                            exposed = res.latency - fetch_hide
                            if exposed > 0:
                                cycle += exposed
                                result.stall_ifetch += exposed
                                if res.llc_miss:
                                    result.llc_i_misses += 1
                                if res.llc_miss or \
                                        res.latency > long_latency:
                                    # a long fetch stall (true LLC miss
                                    # or a barely-started prefetch) is a
                                    # jump-ahead opportunity
                                    if esp is not None:
                                        esp.on_stall(int(cycle), exposed)
                                    # runahead cannot act on I-misses
                        if nl_i is not None:
                            for pb in nl_i.observe(inst.pc, block):
                                hierarchy.prefetch("i", pb, int(cycle))
                        if pif is not None:
                            for pb in pif.observe(inst.pc, block):
                                hierarchy.prefetch("i", pb, int(cycle))
                        if efetch is not None:
                            efetch.observe(inst.pc, block)

                kind = inst.kind
                if kind == KIND_ALU:
                    continue

                # ---- data access ----
                if kind == KIND_LOAD or kind == KIND_STORE:
                    dblock = inst.addr >> BLOCK_SHIFT
                    result.l1d_accesses += 1
                    if not perfect_d:
                        res = hierarchy.access_d(dblock, int(cycle))
                        if not res.l1_hit and \
                                not (res.prefetched and res.latency == 0):
                            result.l1d_misses += 1
                            long_stall = res.llc_miss or \
                                res.latency > long_latency
                            exposed = stall_model.exposed(
                                result.instructions, cycle, res.latency,
                                long_stall)
                            if exposed > 0:
                                cycle += exposed
                                result.stall_data += exposed
                            if res.llc_miss:
                                result.llc_d_misses += 1
                            if long_stall and exposed > 0:
                                if esp is not None:
                                    esp.on_stall(int(cycle), exposed)
                                elif runahead is not None:
                                    if packed is None:
                                        packed = \
                                            PackedStream.from_instructions(
                                                stream)
                                    runahead.on_stall(
                                        packed, pos, int(cycle), exposed)
                        if dcu is not None:
                            for pb in dcu.observe(inst.pc, dblock):
                                hierarchy.prefetch("d", pb, int(cycle))
                        if stride is not None:
                            for pb in stride.observe(inst.pc, inst.addr):
                                hierarchy.prefetch("d", pb, int(cycle))
                    continue

                # ---- control flow ----
                result.branches += 1
                if perfect_b:
                    continue
                if kind == KIND_BRANCH or kind == KIND_IBRANCH:
                    event_branches += 1
                    # ungated, like poll above: the packed loop's due
                    # gating is checked against these calls
                    if replay is not None:
                        replay.before_branch(event_branches)
                if efetch is not None:
                    if kind == KIND_CALL or (kind == KIND_IBRANCH
                                             and inst.taken):
                        for pb in efetch.on_call(inst.target):
                            hierarchy.prefetch("i", pb, int(cycle))
                    elif kind == KIND_RETURN:
                        for pb in efetch.on_return():
                            hierarchy.prefetch("i", pb, int(cycle))
                flags = predictor.execute_branch(
                    inst.pc, kind, inst.taken, inst.target)
                if flags == MISPREDICT:
                    result.branch_mispredicts += 1
                    cycle += mispredict_penalty
                    result.stall_branch += mispredict_penalty
                elif flags == BUBBLE:
                    cycle += bubble_penalty
                    result.stall_branch += bubble_penalty
        return cycle, cur_block


def simulate(app: str | AppProfile, config: SimConfig, scale: float = 1.0,
             seed: int = 0, **run_kwargs) -> SimResult:
    """Convenience wrapper: build a trace for ``app`` and run ``config``."""
    if isinstance(app, str):
        from repro.workloads.apps import get_app

        app = get_app(app)
    sim = Simulator(app, config, scale=scale, seed=seed)
    return sim.run(**run_kwargs)
