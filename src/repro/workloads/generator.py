"""Event-trace generation: walking the synthetic code image.

An :class:`EventTrace` turns an :class:`~repro.workloads.apps.AppProfile`
into a deterministic sequence of :class:`Event` objects. Each event carries

* ``true_stream`` — the instructions the event executes when it is finally
  dequeued and run in the normal mode, and
* ``spec_stream`` — the instructions a *speculative pre-execution* of the
  event observes. Pre-execution happens while up to two earlier events are
  still in flight, so it reads *stale* shared state: any branch conditioned
  on a variable written by one of those skipped events resolves differently
  and the speculative stream diverges from that point on (the paper measures
  >99 % agreement between the two; the divergence rate here falls out of the
  profiles' shared-state write rates).

The walker is an interpreter over the code image's CFG. All randomness
derives from per-event ``random.Random`` streams, so a trace is a pure
function of (profile, scale, seed).
"""

from __future__ import annotations

import math
import random
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.isa.instructions import (
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
from repro.workloads.codebase import (
    TERM_CALL,
    TERM_COND,
    TERM_ICALL,
    TERM_JUMP,
    TERM_RET,
    CodeImage,
    build_code_image,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.isa.stream import PackedStream
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
    """One asynchronous event: its true and speculative streams."""

    __slots__ = ("index", "handler_fid", "writes", "true_stream",
                 "spec_stream", "state_reads", "_packed_true",
                 "_packed_spec")

    def __init__(self, index: int, handler_fid: int, writes: tuple[int, ...],
                 true_stream: list[Instruction],
                 spec_stream: list[Instruction],
                 state_reads: frozenset[int]) -> None:
        self.index = index
        self.handler_fid = handler_fid
        self.writes = writes
        self.true_stream = true_stream
        self.spec_stream = spec_stream
        self.state_reads = state_reads
        self._packed_true = None
        self._packed_spec = None

    def packed_true(self) -> "PackedStream":
        """The true stream's struct-of-arrays packing, built lazily and
        cached for the event's lifetime so every configuration simulated
        against this trace shares it."""
        packed = self._packed_true
        if packed is None or len(packed) != len(self.true_stream):
            from repro.isa.stream import PackedStream

            packed = PackedStream.from_instructions(self.true_stream)
            self._packed_true = packed
        return packed

    def packed_spec(self) -> "PackedStream":
        """The speculative stream's packing (what ESP pre-execution
        consumes). Shares :meth:`packed_true`'s packing for the >99 % of
        events whose speculation does not diverge."""
        if self.spec_stream is self.true_stream:
            return self.packed_true()
        packed = self._packed_spec
        if packed is None or len(packed) != len(self.spec_stream):
            from repro.isa.stream import PackedStream

            packed = PackedStream.from_instructions(self.spec_stream)
            self._packed_spec = packed
        return packed

    @property
    def diverged(self) -> bool:
        """True if speculative pre-execution deviates from the true run."""
        return self.spec_stream is not self.true_stream

    def __len__(self) -> int:
        return len(self.true_stream)


class _Walker:
    """CFG interpreter producing one event's instruction stream."""

    def __init__(self, image: CodeImage, profile: "AppProfile",
                 event_index: int, handler_fid: int, rng: random.Random,
                 state: dict[int, int]) -> None:
        self.image = image
        self.profile = profile
        self.rng = rng
        self.state = state
        self.handler_fid = handler_fid
        self.stream: list[Instruction] = []
        self.state_reads: set[int] = set()
        #: shared-state variables this event writes at completion
        self.writes: tuple[int, ...] = ()
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

    def run(self, target_len: int) -> list[Instruction]:
        """Produce the event's stream.

        The handler entry runs once, then acts as a driver loop dispatching
        work items — calls into the handler's private helpers and its
        preferred slice of the shared library (a JavaScript handler invoking
        DOM/engine helpers). This is what gives events their large, varied
        instruction working sets: each dispatch touches a different function
        subtree.
        """
        stream = self.stream
        image = self.image
        rng = self.rng
        self._walk_function(self.handler_fid, depth=0, budget=target_len)
        entry_block = image.function(self.handler_fid).blocks[0]
        dispatch_pc = entry_block.term_pc
        helpers = self._helper_ids
        libs = self._preferred_libs
        while len(stream) < target_len:
            before = len(stream)
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
                if len(stream) >= target_len:
                    break
                stream.append(Instruction(dispatch_pc, KIND_IBRANCH,
                                          taken=True, target=entry.addr))
                self._walk_function(fid, depth=1, budget=target_len)
                if stream and stream[-1].kind == KIND_RETURN \
                        and stream[-1].target == 0:
                    stream[-1].target = dispatch_pc + INSTR_BYTES
            if len(stream) == before:  # safety: nothing emitted
                break
        self._emit_state_writes()
        return stream

    def _emit_state_writes(self) -> None:
        looper = self.image.function(self.image.looper_fid)
        pc = looper.base_addr
        for var in self.writes:
            self.stream.append(Instruction(pc, KIND_STORE,
                                           addr=SHARED_BASE + var * 64))

    def _walk_function(self, fid: int, depth: int, budget: int) -> None:
        """Execute one function invocation (recursion mirrors the stack)."""
        image = self.image
        profile = self.profile
        rng = self.rng
        stream = self.stream
        func = image.function(fid)
        blocks = func.blocks
        n_blocks = len(blocks)
        loop_counts: dict[int, int] = {}
        bidx = 0
        while bidx < n_blocks:
            block = blocks[bidx]
            # body instructions
            pc = block.addr
            streaming = block.streaming
            for kind in block.body_kinds:
                if kind == KIND_ALU:
                    stream.append(Instruction(pc, KIND_ALU))
                else:
                    stream.append(Instruction(
                        pc, kind, addr=self._data_address(depth, streaming)))
                pc += INSTR_BYTES
            term_pc = block.term_pc
            term = block.term_kind
            if len(stream) >= budget:
                # budget exhausted: unwind (no further instructions emitted)
                return
            if term == TERM_RET:
                if depth == 0:
                    stream.append(Instruction(term_pc, KIND_RETURN,
                                              taken=True,
                                              target=QUEUE_BASE))
                    return
                stream.append(Instruction(term_pc, KIND_RETURN, taken=True,
                                          target=0))  # caller fixes target
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
                target_block = blocks[block.target if taken
                                      else block.fall_through]
                stream.append(Instruction(term_pc, KIND_BRANCH, taken=taken,
                                          target=target_block.addr))
                bidx = block.target if taken else block.fall_through
                continue
            if term == TERM_JUMP:
                target_block = blocks[block.target]
                if block.target != bidx + 1:
                    stream.append(Instruction(term_pc, KIND_JUMP, taken=True,
                                              target=target_block.addr))
                else:
                    stream.append(Instruction(term_pc, KIND_ALU))
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
                    stream.append(Instruction(term_pc, KIND_ALU))
                else:
                    entry = image.function(callee).entry
                    stream.append(Instruction(term_pc, kind, taken=True,
                                              target=entry.addr))
                    self._walk_function(callee, depth + 1, budget)
                    if stream and stream[-1].kind == KIND_RETURN \
                            and stream[-1].target == 0:
                        stream[-1].target = term_pc + INSTR_BYTES
                    if len(stream) >= budget:
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
    implement ``__len__``, ``handler_fid`` and ``event``.
    """

    profile: "AppProfile"
    image: CodeImage

    def __init__(self) -> None:
        self._looper_body: list[Instruction] | None = None
        #: per-handler packed looper streams (body + dispatch)
        self._packed_loopers: dict[int, "PackedStream"] = {}

    def looper_stream(self, index: int) -> list[Instruction]:
        """Queue-management instructions the looper thread executes before
        dispatching event ``index`` (about 70 instructions, Section 3.6),
        ending with the indirect dispatch into the handler."""
        if self._looper_body is None:
            self._looper_body = self._build_looper_body()
        handler_entry = self.image.function(
            self.handler_fid(index)).entry.addr
        stream = list(self._looper_body)
        dispatch_pc = stream[-1].pc + INSTR_BYTES
        stream.append(Instruction(dispatch_pc, KIND_IBRANCH, taken=True,
                                  target=handler_entry))
        return stream

    def packed_looper_stream(self, index: int) -> "PackedStream":
        """:meth:`looper_stream` in packed form, cached per handler
        (handlers repeat constantly, so each is packed once)."""
        handler = self.handler_fid(index)
        packed = self._packed_loopers.get(handler)
        if packed is None:
            from repro.isa.stream import PackedStream

            packed = PackedStream.from_instructions(
                self.looper_stream(index))
            self._packed_loopers[handler] = packed
        return packed

    def _build_looper_body(self) -> list[Instruction]:
        looper = self.image.function(self.image.looper_fid)
        stream: list[Instruction] = []
        rng = random.Random(("looper", self.profile.name).__repr__())
        pc = looper.base_addr
        for i in range(self.profile.looper_len - 1):
            draw = rng.random()
            if draw < 0.3:
                stream.append(Instruction(
                    pc, KIND_LOAD, addr=QUEUE_BASE + rng.randrange(8) * 64))
            elif draw < 0.45:
                stream.append(Instruction(
                    pc, KIND_STORE, addr=QUEUE_BASE + rng.randrange(8) * 64))
            else:
                stream.append(Instruction(pc, KIND_ALU))
            pc += INSTR_BYTES
        return stream


class EventTrace(TraceBase):
    """Deterministic sequence of events for one application profile.

    Events are materialised lazily and cached in a small LRU window, since
    the simulator only ever needs the current event and the next
    ``depth`` pre-executable events.
    """

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

        self._cache: OrderedDict[int, Event] = OrderedDict()
        self._cache_capacity = 8

    def __len__(self) -> int:
        return self.n_events

    # -- events --------------------------------------------------------------

    def handler_fid(self, index: int) -> int:
        """Handler function id of event ``index`` (without materialising
        the event's streams)."""
        return self._handler_of[index]

    def stale_state_for(self, index: int) -> dict[int, int]:
        """Shared state visible to a pre-execution of event ``index``: the
        state as of two events earlier (the writes of the one or two skipped
        in-flight events are missing)."""
        return self._state_before[max(0, index - 2)]

    def event(self, index: int) -> Event:
        if not 0 <= index < self.n_events:
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

    def _materialize(self, index: int) -> Event:
        handler = self._handler_of[index]
        seed = self._event_seed[index]
        target = self._target_len[index]
        true_state = self._state_before[index]
        stale_state = self.stale_state_for(index)

        walker = _Walker(self.image, self.profile, index, handler,
                         random.Random(seed), true_state)
        walker.writes = self._writes[index]
        true_stream = walker.run(target)
        reads = frozenset(walker.state_reads)

        differing = {v for v in reads
                     if true_state.get(v, 0) != stale_state.get(v, 0)}
        if differing:
            spec_walker = _Walker(self.image, self.profile, index, handler,
                                  random.Random(seed), stale_state)
            spec_walker.writes = self._writes[index]
            spec_stream = spec_walker.run(target)
            if spec_stream == true_stream:
                # the stale values flipped no branch this event executed
                spec_stream = true_stream
        else:
            spec_stream = true_stream
        return Event(index, handler, self._writes[index], true_stream,
                     spec_stream, reads)
