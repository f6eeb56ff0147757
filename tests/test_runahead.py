"""Unit tests for the runahead-execution baseline."""

import pytest

from repro.branch import PentiumMPredictor
from repro.isa import (
    KIND_ALU,
    KIND_BRANCH,
    KIND_LOAD,
    Instruction,
)
from repro.isa.stream import PackedStream
from repro.memory import MemoryHierarchy
from repro.runahead import RunaheadController
from repro.sim.config import RunaheadConfig, SimConfig
from repro.sim.results import EspStats

pack = PackedStream.from_instructions


def make_controller(d_only: bool = False):
    config = SimConfig(runahead=RunaheadConfig(enabled=True, d_only=d_only))
    hierarchy = MemoryHierarchy(config.memory)
    predictor = PentiumMPredictor(config.branch)
    stats = EspStats()
    controller = RunaheadController(config, hierarchy, predictor, stats)
    return controller, hierarchy, predictor, stats


def warm_stream(hierarchy, stream):
    """Pre-install the stream's code in L2 so runahead can fetch it."""
    for inst in stream:
        hierarchy.l2.fill(inst.pc >> 6)


class TestRunahead:
    def test_prefetches_future_loads(self):
        controller, hierarchy, _, stats = make_controller()
        stream = [Instruction(0x1000 + 4 * i, KIND_ALU) for i in range(20)]
        stream[10] = Instruction(0x1028, KIND_LOAD, addr=0x9000_0000)
        warm_stream(hierarchy, stream)
        controller.on_stall(pack(stream), 0, cycle=100, budget=200.0)
        assert stats.pre_instructions[0] > 10
        # the load's block is now pending; a later access takes the cover
        res = hierarchy.access_d(0x9000_0000 >> 6,
                                 cycle=100 + hierarchy.mem_latency)
        assert res.prefetched

    def test_short_stall_ignored(self):
        controller, _, _, stats = make_controller()
        stream = [Instruction(0x1000, KIND_ALU)]
        controller.on_stall(pack(stream), 0, 100, budget=3.0)
        assert stats.mode_entries == 0

    def test_stops_at_i_side_llc_miss(self):
        controller, hierarchy, _, stats = make_controller()
        stream = [Instruction(0x1000 + 4 * i, KIND_ALU) for i in range(16)]
        # second block is cold (LLC miss) -> runahead cannot fetch past it
        hierarchy.l2.fill(0x1000 >> 6)
        controller.on_stall(pack(stream), 0, 100, budget=10_000.0)
        assert stats.pre_instructions[0] <= 16

    def test_stops_on_misprediction(self):
        controller, hierarchy, predictor, stats = make_controller()
        stream = [Instruction(0x1000 + 4 * i, KIND_ALU) for i in range(30)]
        # a cold conditional that will be predicted not-taken but is taken
        stream[5] = Instruction(0x1014, KIND_BRANCH, taken=True,
                                target=0x1018)
        warm_stream(hierarchy, stream)
        predicted = predictor.predict_direction(0x1014)
        controller.on_stall(pack(stream), 0, 100, budget=10_000.0)
        if not predicted:
            assert stats.pre_instructions[0] == 6  # stopped at the branch

    def test_restores_pir_and_ras(self):
        controller, hierarchy, predictor, _ = make_controller()
        predictor.pir = 0x77
        predictor.restore_ras([0xBEEF])
        stream = [Instruction(0x1000 + 4 * i, KIND_ALU) for i in range(10)]
        stream[4] = Instruction(0x1010, KIND_BRANCH, taken=True,
                                target=0x1014)
        warm_stream(hierarchy, stream)
        controller.on_stall(pack(stream), 0, 100, budget=500.0)
        assert predictor.pir == 0x77
        assert predictor.snapshot_ras() == [0xBEEF]

    def test_trains_direction_tables(self):
        controller, hierarchy, predictor, _ = make_controller()
        pc = 0x1010
        stream = []
        for i in range(40):
            if i % 4 == 1:
                stream.append(Instruction(pc, KIND_BRANCH, taken=True,
                                          target=pc + 4))
            else:
                stream.append(Instruction(0x1000 + 4 * i, KIND_ALU))
        warm_stream(hierarchy, stream)
        # seed the predictor so the first branch predicts taken
        for _ in range(3):
            predictor.train_ahead(pc, KIND_BRANCH, True, pc + 4,
                                  predictor.pir)
        controller.on_stall(pack(stream), 0, 100, budget=5000.0)
        assert predictor.predict_direction(pc) is True


class TestRunaheadD:
    def test_d_only_skips_i_and_branches(self):
        controller, hierarchy, predictor, stats = make_controller(d_only=True)
        # code is cold but d_only runahead does not fetch instructions
        stream = [Instruction(0x1000 + 256 * i, KIND_ALU) for i in range(20)]
        stream[3] = Instruction(0x1000 + 256 * 3, KIND_LOAD,
                                addr=0x9000_0000)
        stream[5] = Instruction(0x1000 + 256 * 5, KIND_BRANCH, taken=True,
                                target=0x2000)
        controller.on_stall(pack(stream), 0, 100, budget=500.0)
        assert stats.pre_instructions[0] == 20  # never stopped by I or BP
        assert predictor.predictions == 0
        assert not hierarchy.l1i.contains(0x1000 >> 6)
        res = hierarchy.access_d(0x9000_0000 >> 6,
                                 cycle=100 + hierarchy.mem_latency)
        assert res.prefetched

    def test_d_only_skips_resident_blocks(self):
        controller, hierarchy, _, _ = make_controller(d_only=True)
        hierarchy.fetch_into("d", 0x9000_0000 >> 6)
        stream = [Instruction(0x1000, KIND_LOAD, addr=0x9000_0000)]
        controller.on_stall(pack(stream), 0, 100, budget=500.0)
        assert hierarchy.prefetch_stats("d").issued == 0
