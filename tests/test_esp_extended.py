"""Extended ESP behaviour tests: promotion, replication, decay, and
cross-event hint flow on real (tiny) workloads."""

import pytest

from repro.branch import PentiumMPredictor
from repro.esp import EspController
from repro.isa import KIND_ALU, KIND_BRANCH, KIND_LOAD, Instruction
from repro.isa.stream import PackedStream
from repro.memory import MemoryHierarchy
from repro.sim import presets
from repro.sim.config import EspBpMode, EspConfig, SimConfig
from repro.sim.results import EspStats
from repro.sim.simulator import Simulator
from repro.workloads import EventTrace


pack = PackedStream.from_instructions


def make_harness(streams, config=None):
    config = config or SimConfig(esp=EspConfig(enabled=True))
    hierarchy = MemoryHierarchy(config.memory)
    predictor = PentiumMPredictor(config.branch)
    stats = EspStats()
    controller = EspController(
        config, hierarchy, predictor, stats,
        spec_stream_provider=lambda k: pack(streams[k]),
        handler_addr_provider=lambda k: 0x40_0000 + k * 0x100,
        n_events=len(streams))
    return controller, hierarchy, predictor, stats


def block_walk(base_pc: int, n: int) -> list[Instruction]:
    """A stream touching a new I-block every 16 instructions."""
    return [Instruction(base_pc + 4 * i, KIND_ALU) for i in range(n)]


class TestPromotionFlow:
    def test_hints_follow_events_across_promotions(self):
        streams = {k: block_walk(0x40_0000 + k * 0x10000, 200)
                   for k in range(6)}
        controller, _, _, _ = make_harness(streams)
        controller.begin_event(0, 0)
        # pre-execute events 1 (ESP-1) and 2 (ESP-2)
        for stall in range(6):
            controller.on_stall(100 + stall * 500, 400.0)
        slot1_state = controller.queue.slot(0).state
        slot2_state = controller.queue.slot(1).state
        assert slot1_state.event_index == 1
        # event 1 becomes current: its hints must arm the replay engine
        controller.begin_event(1, 4000)
        assert controller.replay.active
        # event 2's state survived the promotion into the ESP-1 slot
        assert controller.queue.slot(0).state is slot2_state

    def test_lists_grow_on_promotion(self):
        streams = {k: block_walk(0x40_0000 + k * 0x10000, 3000)
                   for k in range(6)}
        controller, _, _, _ = make_harness(streams)
        controller.begin_event(0, 0)
        for stall in range(30):
            controller.on_stall(100 + stall * 500, 2000.0)
        slot2_state = controller.queue.slot(1).state
        if slot2_state is None or slot2_state.hints is None:
            pytest.skip("ESP-2 never started in this configuration")
        esp2_capacity = slot2_state.hints.i_list.capacity_bits
        controller.begin_event(1, 50_000)
        promoted = controller.queue.slot(0).state.hints
        assert promoted.i_list.capacity_bits > esp2_capacity

    def test_cachelet_contents_promoted(self):
        streams = {k: block_walk(0x40_0000 + k * 0x10000, 64)
                   for k in range(6)}
        controller, _, _, _ = make_harness(streams)
        controller.begin_event(0, 0)
        for stall in range(20):
            controller.on_stall(100 + stall * 300, 1500.0)
        esp2_blocks = controller.i_cachelets[1].resident_blocks()
        if not esp2_blocks:
            pytest.skip("ESP-2 cachelet never filled")
        controller.begin_event(1, 50_000)
        for block in esp2_blocks:
            assert controller.i_cachelets[0].contains(block)


class TestSeparateTablesAdoption:
    def test_replica_becomes_live(self):
        pc = 0x40_0000 + 0x10000 + 40
        stream = []
        for i in range(120):
            if i % 6 == 5:
                stream.append(Instruction(pc, KIND_BRANCH, taken=True,
                                          target=pc + 4))
            else:
                stream.append(Instruction(0x40_0000 + 0x10000 + 4 * i,
                                          KIND_ALU))
        streams = {k: stream if k == 1 else block_walk(
            0x40_0000 + k * 0x10000, 50) for k in range(4)}
        config = SimConfig(esp=EspConfig(
            enabled=True, bp_mode=EspBpMode.SEPARATE_TABLES,
            use_b_list=False))
        controller, _, predictor, _ = make_harness(streams, config)
        controller.begin_event(0, 0)
        for stall in range(10):
            controller.on_stall(100 + stall * 400, 800.0)
        state = controller.queue.slot(0).state
        assert state.bp_replica is not None
        # before adoption the live predictor has not seen the branch; the
        # replica has. After begin_event(1) the replica's tables are live.
        controller.begin_event(1, 20_000)
        assert predictor.predict_direction(pc) is True


class TestNaiveDecayDeterminism:
    def test_same_run_same_result(self, tiny_app):
        a = Simulator(tiny_app, presets.naive_esp_nl()).run()
        b = Simulator(tiny_app, presets.naive_esp_nl()).run()
        assert a.cycles == b.cycles

    def test_decay_probability_bounds(self):
        with_decay = presets.naive_esp_nl()
        assert 0 <= with_decay.esp.naive_l2_decay <= 1
        assert 0 <= with_decay.esp.naive_l1_decay <= 1


class TestDivergedEventHints:
    def test_diverged_hints_degrade_not_crash(self):
        """A diverged spec stream yields stale hints; the run completes and
        the stale prefetches are simply wasted."""
        true_stream = block_walk(0x40_0000, 400)
        spec_stream = block_walk(0x48_0000, 400)  # entirely different code
        streams = {0: block_walk(0x41_0000, 200),
                   1: true_stream, 2: block_walk(0x42_0000, 100),
                   3: block_walk(0x43_0000, 100)}
        controller, hierarchy, _, stats = make_harness(streams)
        controller.begin_event(0, 0)
        # pre-execute the *speculative* stream for event 1
        controller._spec_stream = lambda k: pack(spec_stream if k == 1
                                                 else streams[k])
        for stall in range(4):
            controller.on_stall(100 + stall * 400, 500.0)
        controller.begin_event(1, 5000)
        assert controller.replay.active
        # replayed prefetches target the spec stream's blocks, not the
        # true stream's
        controller.replay.poll(0, 5000)
        assert stats.list_prefetches_i > 0
        assert not hierarchy.l1i.contains(0x40_0000 >> 6)


class TestDCacheletDirtyEvictions:
    def test_dirty_evictions_counted_via_stats(self):
        config = SimConfig(esp=EspConfig(
            enabled=True, d_cachelet_bytes=(128, 128)))
        streams = {}
        for k in range(4):
            stream = []
            for i in range(64):
                stream.append(Instruction(
                    0x40_0000 + k * 0x10000 + 4 * (i % 8),
                    KIND_LOAD if i % 2 else KIND_ALU,
                    addr=0x9000_0000 + 64 * i))
            streams[k] = stream
        controller, _, _, _ = make_harness(streams, config)
        controller.begin_event(0, 0)
        for stall in range(8):
            controller.on_stall(100 + stall * 400, 2000.0)
        # with a 2-block cachelet and 32 distinct lines, evictions happened
        assert controller.d_cachelets[0].stats.accesses > 0


class TestEndToEndEspInternals:
    @pytest.fixture(scope="class")
    def esp_run(self, tiny_app):
        sim = Simulator(tiny_app, presets.esp_nl())
        result = sim.run()
        return sim, result

    def test_pre_execution_happened_in_both_modes(self, esp_run):
        _, result = esp_run
        assert result.esp.pre_instructions[0] > 0

    def test_hint_consumption_counts_consistent(self, esp_run):
        _, result = esp_run
        assert result.esp.list_prefetches_i <= \
            result.prefetches_issued_i + result.esp.list_prefetches_i
        assert result.esp.hinted_events <= result.events

    def test_cachelet_hit_rate_positive(self, esp_run):
        _, result = esp_run
        stats = result.esp
        assert stats.i_cachelet_accesses > stats.i_cachelet_misses

    def test_default_run_builds_no_working_sets(self, tiny_app):
        """Working sets are opt-in: a default ESP run records none, in
        normal mode or in any pre-executed context."""
        sim = Simulator(tiny_app, presets.esp_nl())
        states = []
        begin_event = sim.esp.begin_event

        def watch_slots(*args, **kwargs):
            states.extend(slot.state for slot in sim.esp.queue.slots
                          if slot is not None and slot.state is not None)
            return begin_event(*args, **kwargs)

        sim.esp.begin_event = watch_slots
        sim.run()
        assert sim.esp.i_working_sets == []
        assert sim.normal_i_working_sets == []
        assert states
        assert all(state.i_touched_by_mode is None for state in states)
        cachelets = sim.esp.i_cachelets.modes + sim.esp.d_cachelets.modes
        assert not any(hasattr(c, "touched") for c in cachelets)

    def test_working_set_instrumentation(self, tiny_app):
        sim = Simulator(tiny_app, presets.esp_nl())
        sim.collect_working_sets = True
        sim.run()
        assert sim.esp.i_working_sets
        for per_mode in sim.esp.i_working_sets:
            for mode, count in per_mode.items():
                assert 0 <= mode < 2
                assert count >= 0
