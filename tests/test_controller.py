"""Unit tests for the ESP controller (mode switching, recording)."""

import pytest

from repro.branch import PentiumMPredictor
from repro.esp import EspController
from repro.isa import (
    KIND_ALU,
    KIND_BRANCH,
    KIND_LOAD,
    KIND_STORE,
    Instruction,
)
from repro.isa.stream import PackedStream
from repro.memory import MemoryHierarchy
from repro.sim.config import EspBpMode, EspConfig, SimConfig
from repro.sim.results import EspStats


def straight_line(base_pc: int, n: int, load_every: int = 0,
                  load_base: int = 0x9000_0000) -> list[Instruction]:
    """n sequential instructions, optionally with periodic loads."""
    stream = []
    for i in range(n):
        pc = base_pc + 4 * i
        if load_every and i % load_every == load_every - 1:
            stream.append(Instruction(pc, KIND_LOAD,
                                      addr=load_base + 8 * i))
        else:
            stream.append(Instruction(pc, KIND_ALU))
    return stream


class Harness:
    def __init__(self, streams, config: SimConfig | None = None):
        self.streams = streams
        self.config = config or SimConfig(
            name="test", esp=EspConfig(enabled=True))
        self.hierarchy = MemoryHierarchy(self.config.memory)
        self.predictor = PentiumMPredictor(self.config.branch)
        self.stats = EspStats()
        self.controller = EspController(
            self.config, self.hierarchy, self.predictor, self.stats,
            spec_stream_provider=lambda k: PackedStream.from_instructions(
                self.streams[k]),
            handler_addr_provider=lambda k: 0x40_0000 + k * 0x100,
            n_events=len(self.streams))


@pytest.fixture
def harness():
    streams = {k: straight_line(0x40_0000 + k * 0x10000, 400, load_every=8)
               for k in range(5)}
    return Harness(streams)


class TestLifecycle:
    def test_begin_event_fills_queue(self, harness):
        harness.controller.begin_event(0, cycle=0)
        queue = harness.controller.queue
        assert queue.slot(0).event_index == 1
        assert queue.slot(1).event_index == 2

    def test_queue_rotates_on_next_event(self, harness):
        harness.controller.begin_event(0, 0)
        harness.controller.begin_event(1, 100)
        queue = harness.controller.queue
        assert queue.slot(0).event_index == 2
        assert queue.slot(1).event_index == 3

    def test_queue_truncated_at_trace_end(self, harness):
        harness.controller.begin_event(3, 0)
        queue = harness.controller.queue
        assert queue.slot(0).event_index == 4
        assert queue.slot(1) is None

    def test_no_hints_for_never_preexecuted_event(self, harness):
        harness.controller.begin_event(0, 0)
        harness.controller.begin_event(1, 100)
        assert not harness.controller.replay.active


class TestPreExecution:
    def test_stall_preexecutes_next_event(self, harness):
        c = harness.controller
        c.begin_event(0, 0)
        # the first stall's pre-execution jumps deeper immediately (cold
        # fetch is an LLC miss); the second resumes ESP-1 past it
        c.on_stall(cycle=100, budget=400.0)
        c.on_stall(cycle=800, budget=400.0)
        slot = c.queue.slot(0)
        assert slot.state is not None
        assert slot.eu
        assert slot.state.position > 0
        assert harness.stats.pre_instructions[0] > 0

    def test_small_stall_ignored(self, harness):
        c = harness.controller
        c.begin_event(0, 0)
        c.on_stall(cycle=100, budget=5.0)
        assert c.queue.slot(0).state is None
        assert harness.stats.mode_entries == 0

    def test_reentrant_resume(self, harness):
        c = harness.controller
        c.begin_event(0, 0)
        c.on_stall(100, 200.0)
        pos1 = c.queue.slot(0).state.position
        c.on_stall(500, 200.0)
        pos2 = c.queue.slot(0).state.position
        assert pos2 > pos1

    def test_finished_event_jumps_deeper(self, harness):
        c = harness.controller
        c.begin_event(0, 0)
        # enough budget to finish event 1's 400 instructions and move on
        c.on_stall(100, 100_000.0)
        assert c.queue.slot(0).state.finished
        assert c.queue.slot(1).state is not None
        assert harness.stats.pre_instructions[1] > 0
        assert harness.stats.pre_complete_events >= 1

    def test_records_i_list(self, harness):
        c = harness.controller
        c.begin_event(0, 0)
        c.on_stall(100, 600.0)
        c.on_stall(800, 600.0)
        hints = c.queue.slot(0).state.hints
        assert len(hints.i_list) > 0
        blocks = [b for b, _ in hints.i_list.expand()]
        assert blocks[0] == (0x40_0000 + 0x10000) >> 6

    def test_records_d_list(self, harness):
        c = harness.controller
        c.begin_event(0, 0)
        c.on_stall(100, 2000.0)
        c.on_stall(5000, 2000.0)
        hints = c.queue.slot(0).state.hints
        assert len(hints.d_list) > 0

    def test_working_sets_tracked(self, harness):
        c = harness.controller
        c.collect_working_sets = True
        c.begin_event(0, 0)
        c.on_stall(100, 2000.0)
        state = c.queue.slot(0).state
        assert len(state.i_touched_by_mode.get(0, ())) > 0
        c.begin_event(1, 3000)
        assert c.i_working_sets
        assert 0 in c.i_working_sets[-1]

    def test_cachelet_stats_accumulate(self, harness):
        c = harness.controller
        c.begin_event(0, 0)
        c.on_stall(100, 2000.0)
        assert harness.stats.i_cachelet_accesses > 0
        assert harness.stats.i_cachelet_misses > 0


class TestIsolation:
    def test_preexec_does_not_fill_l1(self, harness):
        c = harness.controller
        c.begin_event(0, 0)
        c.on_stall(100, 2000.0)
        block = (0x40_0000 + 0x10000) >> 6
        assert not harness.hierarchy.l1i.contains(block)
        assert not harness.hierarchy.l2.contains(block)

    def test_preexec_preserves_live_pir(self, harness):
        c = harness.controller
        harness.predictor.pir = 0x1234
        c.begin_event(0, 0)
        c.on_stall(100, 2000.0)
        assert harness.predictor.pir == 0x1234

    def test_preexec_preserves_live_ras(self, harness):
        c = harness.controller
        harness.predictor.restore_ras([0xAAAA])
        c.begin_event(0, 0)
        c.on_stall(100, 2000.0)
        assert harness.predictor.snapshot_ras() == [0xAAAA]


class TestNaiveMode:
    def test_naive_fills_l1_and_records_nothing(self):
        streams = {k: straight_line(0x40_0000 + k * 0x10000, 200)
                   for k in range(4)}
        config = SimConfig(esp=EspConfig(enabled=True, naive=True,
                                         bp_mode=EspBpMode.NAIVE))
        harness = Harness(streams, config)
        c = harness.controller
        c.begin_event(0, 0)
        c.on_stall(100, 2000.0)
        block = (0x40_0000 + 0x10000) >> 6
        assert harness.hierarchy.l1i.contains(block)
        assert c.queue.slot(0).state.hints is None


class TestExhaustion:
    def test_full_lists_stop_preexecution(self):
        # tiny list budgets: recording saturates almost immediately
        esp = EspConfig(enabled=True,
                        i_list_bytes=(12, 8), d_list_bytes=(12, 8),
                        b_list_dir_bytes=(6, 4), b_list_tgt_bytes=(4, 2))
        stream = []
        base = 0x40_0000 + 0x40000
        for i in range(4000):
            pc = base + 256 * i  # a new block every instruction
            if i % 3 == 0:
                stream.append(Instruction(pc, KIND_LOAD,
                                          addr=0x9000_0000 + 512 * i))
            elif i % 7 == 0:
                stream.append(Instruction(pc, KIND_BRANCH, taken=True,
                                          target=pc + 256))
            else:
                stream.append(Instruction(pc, KIND_ALU))
        # events 2+ are trivial so ESP-1 keeps getting the idle cycles
        streams = {1: stream}
        for k in (0, 2, 3):
            streams[k] = [Instruction(0x40_0000 + k * 0x40000, KIND_ALU)]
        harness = Harness(streams, SimConfig(esp=esp))
        c = harness.controller
        c.begin_event(0, 0)
        for stall in range(40):
            c.on_stall(100 + 1000 * stall, 10_000.0)
        state = c.queue.slot(0).state
        assert state.exhausted
        assert not state.finished
        pos = state.position
        c.on_stall(100_000, 10_000.0)
        assert state.position == pos  # no further pre-execution

    def test_promotion_clears_exhaustion(self):
        esp = EspConfig(enabled=True,
                        i_list_bytes=(2000, 8), d_list_bytes=(2000, 8),
                        b_list_dir_bytes=(2000, 4), b_list_tgt_bytes=(40, 2))
        streams = {k: [Instruction(0x40_0000 + k * 0x40000 + 256 * i,
                                   KIND_ALU) for i in range(300)]
                   for k in range(4)}
        harness = Harness(streams, SimConfig(esp=esp))
        c = harness.controller
        c.begin_event(0, 0)
        c.on_stall(100, 3000.0)  # pre-execute event 1 (ESP-1) a bit,
        c.on_stall(400, 100_000.0)  # then deep into event 2 (ESP-2)
        slot2 = c.queue.slot(1)
        if slot2.state is not None and slot2.state.exhausted:
            c.begin_event(1, 5000)
            assert not c.queue.slot(0).state.exhausted


class TestStoresIsolated:
    def test_speculative_stores_stay_in_cachelet(self):
        streams = {k: [Instruction(0x40_0000 + k * 0x10000, KIND_STORE,
                                   addr=0x9999_0000)]
                   for k in range(4)}
        harness = Harness(streams)
        c = harness.controller
        c.begin_event(0, 0)
        c.on_stall(100, 500.0)
        c.on_stall(800, 500.0)
        block = 0x9999_0000 >> 6
        assert not harness.hierarchy.l1d.contains(block)
        assert not harness.hierarchy.l2.contains(block)
        assert c.d_cachelets[0].contains(block)
