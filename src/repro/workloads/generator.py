"""Event-trace generation: walking the synthetic code image.

An :class:`EventTrace` turns an :class:`~repro.workloads.apps.AppProfile`
into a deterministic sequence of :class:`Event` objects. Each event carries

* a *true* stream — the instructions the event executes when it is finally
  dequeued and run in the normal mode, and
* a *speculative* stream — the instructions a *speculative pre-execution*
  of the event observes. Pre-execution happens while up to two earlier
  events are still in flight, so it reads *stale* shared state: any branch
  conditioned on a variable written by one of those skipped events
  resolves differently and the speculative stream diverges from that point
  on (the paper measures >99 % agreement between the two; the divergence
  rate here falls out of the profiles' shared-state write rates).

The walker is an interpreter over the code image's CFG that appends
straight to :class:`~repro.isa.stream.PackedStream` columns, the form
every consumer reads (the packed loop, ESP, runahead, the ``.espt``
codec). ``Instruction`` lists exist only as a lazily unpacked view
(``Event.true_stream`` / ``spec_stream``, ``looper_stream``) for the
object-loop test oracle and tests. All randomness derives from per-event
``random.Random`` streams, so a trace is a pure function of (profile,
scale, seed).
"""

from __future__ import annotations

import math
import random
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.isa.instructions import (
    BLOCK_SHIFT,
    INSTR_BYTES,
    KIND_ALU,
    KIND_BRANCH,
    KIND_CALL,
    KIND_IBRANCH,
    KIND_JUMP,
    KIND_LOAD,
    KIND_RETURN,
    KIND_STORE,
    Instruction,
)
from repro.isa.stream import PackedStream
from repro.workloads.codebase import (
    TERM_CALL,
    TERM_COND,
    TERM_ICALL,
    TERM_JUMP,
    TERM_RET,
    CodeImage,
    Function,
    build_code_image,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.apps import AppProfile

# Data address-space layout (byte addresses).
SHARED_BASE = 0x0800_0000
GLOBAL_BASE = 0x1000_0000
HEAP_BASE = 0x2000_0000
FRESH_HEAP_BASE = 0x3000_0000
STREAM_BASE = 0x4000_0000
QUEUE_BASE = 0x6000_0000
STACK_BASE = 0x7FFF_0000

_GLOBAL_REGION_STRIDE = 1 << 20  # per-handler global region spacing
_HEAP_REGION_STRIDE = 1 << 20  # per-event heap region spacing
_FRAME_BYTES = 192
_MAX_CALL_DEPTH = 16


def _state_branch_outcome(value: int, site_pc: int) -> bool:
    """Deterministic direction of a shared-state-conditioned branch."""
    return bool(((value * 2654435761) ^ (site_pc * 40503)) >> 13 & 1)


class Event:
    """One asynchronous event: its packed true and speculative streams.

    Generated (:class:`EventTrace`) and recorded
    (:class:`~repro.isa.tracefile.LoadedTrace`) traces both hand these out.
    The packed streams are the event; the ``Instruction`` lists
    ``true_stream`` and ``spec_stream`` are unpacked from them only on
    first access (the object-loop test oracle and tests ask for them).
    """

    __slots__ = ("index", "handler_fid", "_packed_true", "_packed_spec",
                 "_true_stream", "_spec_stream")

    def __init__(self, index: int, handler_fid: int,
                 packed_true: PackedStream,
                 packed_spec: PackedStream) -> None:
        self.index = index
        self.handler_fid = handler_fid
        self._packed_true = packed_true
        self._packed_spec = packed_spec
        self._true_stream: list[Instruction] | None = None
        self._spec_stream: list[Instruction] | None = None

    def packed_true(self) -> PackedStream:
        """The true stream: what the event executes in normal mode."""
        return self._packed_true

    def packed_spec(self) -> PackedStream:
        """The speculative stream (what ESP pre-execution consumes); the
        very :meth:`packed_true` object when the event did not diverge."""
        return self._packed_spec

    @property
    def diverged(self) -> bool:
        """True if speculative pre-execution deviates from the true run."""
        return self._packed_spec is not self._packed_true

    @property
    def true_stream(self) -> list[Instruction]:
        if self._true_stream is None:
            self._true_stream = self._packed_true.to_instructions()
        return self._true_stream

    @property
    def spec_stream(self) -> list[Instruction]:
        if not self.diverged:
            return self.true_stream
        if self._spec_stream is None:
            self._spec_stream = self._packed_spec.to_instructions()
        return self._spec_stream

    def __len__(self) -> int:
        return len(self._packed_true)


def _function_bodies(func: Function) -> list[tuple]:
    """Per basic block of ``func``, the packed columns of its body —
    ``(pcs, kinds, blocks, zeros, falses, memory_slots)`` — with every
    data address and target 0 and every ``taken`` False; the walker
    fills the addresses of the ``memory_slots`` positions per visit."""
    bodies = []
    for block in func.blocks:
        kinds = block.body_kinds
        n = len(kinds)
        pcs = tuple(range(block.addr, block.addr + n * INSTR_BYTES,
                          INSTR_BYTES))
        bodies.append((pcs, kinds, tuple(pc >> BLOCK_SHIFT for pc in pcs),
                       (0,) * n, (False,) * n,
                       tuple(i for i, kind in enumerate(kinds)
                             if kind != KIND_ALU)))
    return bodies


class _Walker:
    """CFG interpreter producing one event's packed instruction stream.

    It appends straight to the six :class:`PackedStream` columns. Block
    bodies are copied in bulk from ``bodies`` (per function id, see
    :func:`_function_bodies`, shared by every walk over one code image);
    only the memory slots draw a data address, in body order.
    """

    def __init__(self, image: CodeImage, profile: "AppProfile",
                 event_index: int, handler_fid: int, rng: random.Random,
                 state: dict[int, int], writes: tuple[int, ...],
                 bodies: dict[int, list[tuple]]) -> None:
        self.image = image
        self.profile = profile
        self.rng = rng
        self.state = state
        self.handler_fid = handler_fid
        self.bodies = bodies
        self.pcs: list[int] = []
        self.kinds: list[int] = []
        self.addrs: list[int] = []
        self.takens: list[bool] = []
        self.targets: list[int] = []
        self.blocks: list[int] = []
        self.state_reads: set[int] = set()
        #: shared-state variables this event writes at completion
        self.writes = writes
        # data-region bases for this event
        self.global_base = GLOBAL_BASE + \
            (handler_fid % 64) * _GLOBAL_REGION_STRIDE
        self.heap_base = FRESH_HEAP_BASE + \
            (event_index % 8192) * _HEAP_REGION_STRIDE
        self.stream_cursor = STREAM_BASE + \
            (event_index % 64) * (profile.stream_blocks * 64)
        # bump-pointer allocator: fresh heap objects are allocated (and
        # first touched) sequentially, like a real nursery
        self.heap_cursor = self.heap_base
        self._weights = profile.region_weights
        self._heap_blocks = max(1, profile.heap_blocks_per_event)
        self._heap_pool_blocks = max(1, profile.heap_pool_blocks)
        self._heap_fresh_fraction = profile.heap_fresh_fraction
        self._global_blocks = max(1, profile.global_blocks_per_handler)
        self._global_hot_blocks = min(self._global_blocks,
                                      profile.global_hot_blocks)
        self._shared_blocks = max(1, profile.shared_blocks)
        # temporal-locality buffer: real code re-reads recent locations
        self._revisit_prob = profile.revisit_prob
        self._recent: list[int] = []
        self._recent_idx = 0
        # the handler's dispatch pool: private helpers plus a per-handler
        # preference ordering over the shared library
        self._helper_ids = image.handler_helpers.get(handler_fid, [])
        libs = list(image.library_ids)
        random.Random(("libs", handler_fid).__repr__()).shuffle(libs)
        self._preferred_libs = libs or [image.looper_fid]

    # -- data addresses ------------------------------------------------------

    def _data_address(self, depth: int, streaming: bool) -> int:
        rng = self.rng
        if streaming:
            self.stream_cursor += 8
            return self.stream_cursor
        # temporal locality: most accesses revisit a recently used location
        recent = self._recent
        if recent and rng.random() < self._revisit_prob:
            return recent[int(len(recent) * rng.random())]
        addr = self._fresh_address(rng, depth)
        if len(recent) < 48:
            recent.append(addr)
        else:
            self._recent_idx = (self._recent_idx + 1) % 48
            recent[self._recent_idx] = addr
        return addr

    def _fresh_address(self, rng: random.Random, depth: int) -> int:
        draw = rng.random()
        w_stack, w_global, w_heap, w_shared, w_stream = self._weights
        if draw < w_stack:
            frame_base = STACK_BASE - depth * _FRAME_BYTES
            return frame_base - (int(rng.random() * _FRAME_BYTES) & ~7)
        draw -= w_stack
        if draw < w_global:
            # mostly the handler's hot globals, with a long cold tail
            if rng.random() < 0.92:
                block = int(self._global_hot_blocks * rng.random())
            else:
                block = int(self._global_blocks * rng.random())
            return self.global_base + block * 64 + (int(rng.random() * 8) * 8)
        draw -= w_global
        if draw < w_heap:
            # the app-wide heap pool is shared across events (L2-warm);
            # a slice of accesses goes to this event's fresh allocations
            if rng.random() < self._heap_fresh_fraction:
                self.heap_cursor += 16
                limit = self.heap_base + self._heap_blocks * 64
                if self.heap_cursor >= limit:
                    self.heap_cursor = self.heap_base
                return self.heap_cursor
            block = int(self._heap_pool_blocks * rng.random() ** 2)
            return HEAP_BASE + block * 64 + (int(rng.random() * 8) * 8)
        draw -= w_heap
        if draw < w_shared:
            return SHARED_BASE + int(self._shared_blocks * rng.random()) * 64
        self.stream_cursor += 8
        return self.stream_cursor

    # -- the walk --------------------------------------------------------------

    def _emit(self, pc: int, kind: int, taken: bool = False,
              target: int = 0, addr: int = 0) -> None:
        """Append one instruction to the columns."""
        self.pcs.append(pc)
        self.kinds.append(kind)
        self.addrs.append(addr)
        self.takens.append(taken)
        self.targets.append(target)
        self.blocks.append(pc >> BLOCK_SHIFT)

    def _fix_return(self, return_pc: int) -> None:
        """Point a just-walked callee's final return at ``return_pc``."""
        if self.kinds and self.kinds[-1] == KIND_RETURN \
                and self.targets[-1] == 0:
            self.targets[-1] = return_pc

    def run(self, target_len: int) -> PackedStream:
        """Produce the event's stream.

        The handler entry runs once, then acts as a driver loop dispatching
        work items — calls into the handler's private helpers and its
        preferred slice of the shared library (a JavaScript handler invoking
        DOM/engine helpers). This is what gives events their large, varied
        instruction working sets: each dispatch touches a different function
        subtree.
        """
        pcs = self.pcs
        image = self.image
        rng = self.rng
        self._walk_function(self.handler_fid, depth=0, budget=target_len)
        entry_block = image.function(self.handler_fid).blocks[0]
        dispatch_pc = entry_block.term_pc
        helpers = self._helper_ids
        libs = self._preferred_libs
        while len(pcs) < target_len:
            before = len(pcs)
            if helpers and rng.random() < 0.5:
                fid = helpers[int(len(helpers) * rng.random())]
            else:
                fid = libs[int(len(libs) * rng.random() ** 1.05)]
            entry = image.function(fid).entry
            # handlers iterate over similar work items: the same helper is
            # dispatched a few times in a row (keeps the indirect dispatch
            # site mostly monomorphic over short windows, like a JS inline
            # cache)
            repeats = 1 + (rng.random() < 0.35)
            for _ in range(repeats):
                if len(pcs) >= target_len:
                    break
                self._emit(dispatch_pc, KIND_IBRANCH, True, entry.addr)
                self._walk_function(fid, depth=1, budget=target_len)
                self._fix_return(dispatch_pc + INSTR_BYTES)
            if len(pcs) == before:  # safety: nothing emitted
                break
        self._emit_state_writes()
        return PackedStream(pcs, self.kinds, self.addrs, self.takens,
                            self.targets, self.blocks)

    def _emit_state_writes(self) -> None:
        looper = self.image.function(self.image.looper_fid)
        pc = looper.base_addr
        for var in self.writes:
            self._emit(pc, KIND_STORE, addr=SHARED_BASE + var * 64)

    def _walk_function(self, fid: int, depth: int, budget: int) -> None:
        """Execute one function invocation (recursion mirrors the stack)."""
        image = self.image
        rng = self.rng
        pcs, kinds, addrs = self.pcs, self.kinds, self.addrs
        takens, targets, blocks_col = self.takens, self.targets, self.blocks
        emit = self._emit
        data_address = self._data_address
        func = image.function(fid)
        blocks = func.blocks
        bodies = self.bodies.get(fid)
        if bodies is None:
            bodies = self.bodies[fid] = _function_bodies(func)
        n_blocks = len(blocks)
        loop_counts: dict[int, int] = {}
        bidx = 0
        while bidx < n_blocks:
            block = blocks[bidx]
            # body instructions, in bulk; memory slots draw their
            # addresses in body order
            body_pcs, body_kinds, body_blocks, zeros, falses, memory_slots = \
                bodies[bidx]
            base = len(pcs)
            pcs += body_pcs
            kinds += body_kinds
            addrs += zeros
            takens += falses
            targets += zeros
            blocks_col += body_blocks
            if memory_slots:
                streaming = block.streaming
                for slot in memory_slots:
                    addrs[base + slot] = data_address(depth, streaming)
            term_pc = block.term_pc
            term = block.term_kind
            if len(pcs) >= budget:
                # budget exhausted: unwind (no further instructions emitted)
                return
            if term == TERM_RET:
                # depth 0 returns to the looper; a callee's caller fixes
                # its target
                emit(term_pc, KIND_RETURN, True,
                     QUEUE_BASE if depth == 0 else 0)
                return
            if term == TERM_COND:
                if block.state_var >= 0:
                    var = block.state_var
                    self.state_reads.add(var)
                    taken = _state_branch_outcome(self.state.get(var, 0),
                                                  term_pc)
                elif block.loop_trip > 0 and block.target < bidx:
                    seen = loop_counts.get(bidx, 0)
                    taken = seen < block.loop_trip
                    loop_counts[bidx] = 0 if not taken else seen + 1
                else:
                    taken = rng.random() < block.bias
                bidx = block.target if taken else block.fall_through
                emit(term_pc, KIND_BRANCH, taken, blocks[bidx].addr)
                continue
            if term == TERM_JUMP:
                if block.target != bidx + 1:
                    emit(term_pc, KIND_JUMP, True, blocks[block.target].addr)
                else:
                    emit(term_pc, KIND_ALU)
                bidx = block.target
                continue
            if term == TERM_CALL or term == TERM_ICALL:
                if term == TERM_CALL:
                    callee = block.callee
                    kind = KIND_CALL
                else:
                    # indirect-call targets are sticky: mostly monomorphic
                    # with an occasional different receiver
                    callee = block.candidates[
                        int(len(block.candidates) * rng.random() ** 3)]
                    kind = KIND_IBRANCH
                if depth >= _MAX_CALL_DEPTH:
                    emit(term_pc, KIND_ALU)
                else:
                    emit(term_pc, kind, True,
                         image.function(callee).entry.addr)
                    self._walk_function(callee, depth + 1, budget)
                    self._fix_return(term_pc + INSTR_BYTES)
                    if len(pcs) >= budget:
                        return
                bidx = block.fall_through
                continue
            raise AssertionError(f"unknown terminator {term}")
        # fell off the end of the function (shouldn't happen: last is RET)
        return


class TraceBase:
    """What the simulator reads from a trace besides its events: the
    ``profile``, the code ``image``, ``handler_fid(k)`` and the looper
    streams, which every trace derives the same way from those three.

    Subclasses set ``profile`` and ``image``, call this ``__init__`` and
    implement ``__len__``, ``handler_fid`` and ``_materialize``, which
    builds event ``k``; :meth:`event` checks the index and keeps the
    last ``_cache_capacity`` events in an LRU window, since the simulator
    only ever needs the current event and the next ``depth``
    pre-executable ones.
    """

    profile: "AppProfile"
    image: CodeImage
    _cache_capacity = 8

    def __init__(self) -> None:
        self._looper_body: PackedStream | None = None
        #: per-handler packed looper streams (body + dispatch)
        self._packed_loopers: dict[int, PackedStream] = {}
        self._cache: OrderedDict[int, Event] = OrderedDict()

    def event(self, index: int) -> Event:
        """Event ``index`` from the window, materialised on a miss."""
        if not 0 <= index < len(self):
            raise IndexError(index)
        cached = self._cache.get(index)
        if cached is not None:
            self._cache.move_to_end(index)
            return cached
        event = self._materialize(index)
        self._cache[index] = event
        if len(self._cache) > self._cache_capacity:
            self._cache.popitem(last=False)
        return event

    def looper_stream(self, index: int) -> list[Instruction]:
        """:meth:`packed_looper_stream` unpacked to ``Instruction``
        objects (for the object-loop test oracle and tests)."""
        return self.packed_looper_stream(index).to_instructions()

    def packed_looper_stream(self, index: int) -> PackedStream:
        """Queue-management instructions the looper thread executes before
        dispatching event ``index`` (about 70 instructions, Section 3.6),
        ending with the indirect dispatch into the handler. Cached per
        handler: handlers repeat constantly, so each is built once."""
        handler = self.handler_fid(index)
        packed = self._packed_loopers.get(handler)
        if packed is None:
            body = self._looper_body
            if body is None:
                body = self._looper_body = self._build_looper_body()
            dispatch = PackedStream(
                (body.pc[-1] + INSTR_BYTES,), (KIND_IBRANCH,), (0,),
                (True,), (self.image.function(handler).entry.addr,))
            packed = self._packed_loopers[handler] = body.concat(dispatch)
        return packed

    def _build_looper_body(self) -> PackedStream:
        looper = self.image.function(self.image.looper_fid)
        n = self.profile.looper_len - 1
        pcs = range(looper.base_addr, looper.base_addr + n * INSTR_BYTES,
                    INSTR_BYTES)
        kinds: list[int] = []
        addrs: list[int] = []
        rng = random.Random(("looper", self.profile.name).__repr__())
        for _ in pcs:
            draw = rng.random()
            if draw < 0.3:
                kinds.append(KIND_LOAD)
                addrs.append(QUEUE_BASE + rng.randrange(8) * 64)
            elif draw < 0.45:
                kinds.append(KIND_STORE)
                addrs.append(QUEUE_BASE + rng.randrange(8) * 64)
            else:
                kinds.append(KIND_ALU)
                addrs.append(0)
        return PackedStream(pcs, kinds, addrs, (False,) * n, (0,) * n)


class EventTrace(TraceBase):
    """Deterministic sequence of events for one application profile,
    walked lazily through the :class:`TraceBase` event window."""

    # bound here too, so a per-class wrapper (the ``workloads.event`` span
    # of bench/tracer.py) tells a walk from a recorded trace's decode
    event = TraceBase.event

    def __init__(self, profile: "AppProfile", scale: float = 1.0,
                 seed: int = 0) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        super().__init__()
        self.profile = profile
        self.scale = scale
        self.seed = seed
        self.image = build_code_image(profile.code,
                                      seed=profile.seed ^ seed)
        rng = random.Random(("trace", profile.name, seed).__repr__())
        self.n_events = max(3, round(profile.n_events * scale))
        # handler popularity: Zipf-like skew
        n_handlers = len(self.image.handler_entries)
        weights = [1.0 / (rank + 1) ** profile.handler_zipf
                   for rank in range(n_handlers)]
        total = sum(weights)
        cumulative = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cumulative.append(acc)
        order = list(range(n_handlers))
        rng.shuffle(order)

        self._handler_of: list[int] = []
        self._target_len: list[int] = []
        self._writes: list[tuple[int, ...]] = []
        self._state_before: list[dict[int, int]] = []
        self._event_seed: list[int] = []
        state: dict[int, int] = {}
        n_vars = profile.code.n_state_vars
        for k in range(self.n_events):
            draw = rng.random()
            rank = next(i for i, c in enumerate(cumulative) if draw <= c)
            self._handler_of.append(
                self.image.handler_entries[order[rank]])
            sigma = profile.event_len_cv
            length = profile.event_len_mean * math.exp(
                rng.gauss(-0.5 * sigma * sigma, sigma))
            self._target_len.append(max(50, round(length)))
            self._state_before.append(dict(state))
            if rng.random() < profile.state_write_rate:
                written = tuple(sorted(
                    rng.sample(range(n_vars), k=rng.randint(1, 3))))
            else:
                written = ()
            self._writes.append(written)
            for var in written:
                state[var] = ((k + 1) * 2654435761 + var) & 0xFFFFFFFF
            self._event_seed.append(rng.getrandbits(48))

        #: per function id, the walker's block-body columns
        self._bodies: dict[int, list[tuple]] = {}

    def __len__(self) -> int:
        return self.n_events

    # -- events --------------------------------------------------------------

    def handler_fid(self, index: int) -> int:
        """Handler function id of event ``index`` (without materialising
        the event's streams)."""
        return self._handler_of[index]

    def instructions(self) -> int:
        """The events' target lengths summed: the walk's estimate of
        their instructions, known before any event is walked."""
        return sum(self._target_len)

    def stale_state_for(self, index: int) -> dict[int, int]:
        """Shared state visible to a pre-execution of event ``index``: the
        state as of two events earlier (the writes of the one or two skipped
        in-flight events are missing)."""
        return self._state_before[max(0, index - 2)]

    def _materialize(self, index: int) -> Event:
        handler = self._handler_of[index]
        seed = self._event_seed[index]
        target = self._target_len[index]
        writes = self._writes[index]
        true_state = self._state_before[index]
        stale_state = self.stale_state_for(index)

        walker = _Walker(self.image, self.profile, index, handler,
                         random.Random(seed), true_state, writes,
                         self._bodies)
        true_packed = walker.run(target)

        differing = {v for v in walker.state_reads
                     if true_state.get(v, 0) != stale_state.get(v, 0)}
        if differing:
            spec_walker = _Walker(self.image, self.profile, index, handler,
                                  random.Random(seed), stale_state, writes,
                                  self._bodies)
            spec_packed = spec_walker.run(target)
            if spec_packed == true_packed:
                # the stale values flipped no branch this event executed
                spec_packed = true_packed
        else:
            spec_packed = true_packed
        return Event(index, handler, true_packed, spec_packed)
