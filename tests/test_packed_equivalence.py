"""Packed hot loop vs the object reference: bit-identical.

The simulator's hot loop has two implementations (see
``repro.sim.simulator``): the packed path walking
:class:`~repro.isa.stream.PackedStream` struct-of-arrays, and the object
path walking ``list[Instruction]``, kept as the test oracle. These tests
pin the contract that both are *bit-identical* — same cycles
(floating-point accumulation order included), same counters, same ESP
statistics — for every preset.
"""

import pytest

from repro.isa.instructions import (
    KIND_ALU,
    KIND_BRANCH,
    KIND_LOAD,
    Instruction,
)
from repro.isa.stream import PackedStream
from repro.sim import presets
from repro.sim.simulator import Simulator
from repro.workloads import get_app
from repro.workloads.generator import EventTrace


class TestPackedStream:
    def _sample(self):
        return [
            Instruction(0x1000, KIND_ALU),
            Instruction(0x1004, KIND_LOAD, addr=0x2000_0040),
            Instruction(0x1008, KIND_BRANCH, taken=True, target=0x1100),
        ]

    def test_roundtrip(self):
        stream = self._sample()
        packed = PackedStream.from_instructions(stream)
        assert len(packed) == len(stream)
        assert packed.to_instructions() == stream

    def test_blocks_precomputed(self):
        packed = PackedStream.from_instructions(self._sample())
        assert packed.block == tuple(pc >> 6 for pc in packed.pc)

    def test_instruction_accessor(self):
        stream = self._sample()
        packed = PackedStream.from_instructions(stream)
        assert packed.instruction(1) == stream[1]

    def test_equality_and_hash(self):
        a = PackedStream.from_instructions(self._sample())
        b = PackedStream.from_instructions(self._sample())
        assert a == b
        assert hash(a) == hash(b)

    def test_concat(self):
        stream = self._sample()
        packed = PackedStream.from_instructions(stream)
        joined = packed.concat(packed)
        assert joined.to_instructions() == stream + stream

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            PackedStream(pc=(0x1000,), kind=())


class TestEventPacking:
    def test_packed_true_cached(self, tiny_trace):
        event = tiny_trace.event(0)
        assert event.packed_true() is event.packed_true()
        assert event.packed_true().to_instructions() == event.true_stream

    def test_packed_spec_shares_when_not_diverged(self, tiny_trace):
        for k in range(len(tiny_trace)):
            event = tiny_trace.event(k)
            packed = event.packed_spec()
            assert packed.to_instructions() == event.spec_stream
            if not event.diverged:
                assert packed is event.packed_true()

    def test_taken_is_a_bool_column(self, tiny_trace):
        """Generated columns hold real bools, as decoded recordings do."""
        streams = [tiny_trace.packed_looper_stream(0)]
        for k in range(len(tiny_trace)):
            event = tiny_trace.event(k)
            streams += [event.packed_true(), event.packed_spec()]
        for packed in streams:
            assert all(type(taken) is bool for taken in packed.taken)

    def test_packed_looper_cached_per_handler(self, tiny_trace):
        packed = tiny_trace.packed_looper_stream(0)
        assert packed.to_instructions() == tiny_trace.looper_stream(0)
        same_handler = [k for k in range(len(tiny_trace))
                        if tiny_trace.handler_fid(k)
                        == tiny_trace.handler_fid(0)]
        for k in same_handler:
            assert tiny_trace.packed_looper_stream(k) is packed


class _RecordingTrace(EventTrace):
    """An ``EventTrace`` that keeps every event it materialises."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.made = []

    def _materialize(self, index):
        event = super()._materialize(index)
        self.made.append(event)
        return event


class TestNoUnpack:
    """The packed loop, ESP and runahead read only the columns a fresh
    trace generates: no ``Instruction`` list is built or unpacked."""

    @pytest.mark.parametrize("preset", ["esp_nl", "runahead_nl"])
    def test_packed_kernel_never_unpacks(self, preset, tiny_app,
                                         monkeypatch):
        def refuse(stream):
            raise AssertionError("from_instructions on the packed path")

        monkeypatch.setattr(PackedStream, "from_instructions",
                            classmethod(refuse))
        trace = _RecordingTrace(tiny_app, scale=1.0, seed=3)
        result = Simulator(trace, presets.by_name(preset),
                           kernel="packed").run()
        assert result.esp.mode_entries > 0
        assert len(trace.made) >= len(trace)
        for event in trace.made:
            assert event._true_stream is None
            assert event._spec_stream is None


def _run_pair(trace_factory, config):
    obj = Simulator(trace_factory(), config, kernel="object").run()
    packed = Simulator(trace_factory(), config, kernel="packed").run()
    return obj, packed


class TestBitIdentity:
    @pytest.mark.parametrize("preset", presets.preset_names())
    def test_every_preset_tiny_app(self, preset, tiny_app):
        config = presets.by_name(preset)
        obj, packed = _run_pair(
            lambda: EventTrace(tiny_app, scale=1.0, seed=3), config)
        assert obj.to_dict() == packed.to_dict()

    @pytest.mark.parametrize("preset",
                             ["baseline", "nl", "esp_nl", "runahead_nl"])
    def test_headline_presets_real_app(self, preset):
        config = presets.by_name(preset)
        obj, packed = _run_pair(
            lambda: EventTrace(get_app("pixlr"), scale=0.25, seed=0),
            config)
        assert obj.to_dict() == packed.to_dict()

    @pytest.mark.parametrize("preset", ["runahead_nl", "runahead_d"])
    def test_runahead_runs_on_packed_loop(self, preset, tiny_trace):
        """Runahead periods pre-execute the packed stream the packed loop
        is executing, bit-identical to the object reference."""
        sim = Simulator(tiny_trace, presets.by_name(preset))
        packed = sim.run()
        assert sim.kernel == "packed"
        assert packed.esp.mode_entries > 0
        reference = Simulator(tiny_trace, presets.by_name(preset),
                              kernel="object").run()
        assert packed.to_dict() == reference.to_dict()

    def test_working_sets_and_event_profiles_match(self, tiny_app):
        config = presets.by_name("esp_nl")
        results = []
        for kernel in ("object", "packed"):
            sim = Simulator(EventTrace(tiny_app, scale=1.0, seed=0),
                            config, kernel=kernel)
            sim.collect_working_sets = True
            sim.collect_event_profile = True
            sim.run()
            results.append((sim.normal_i_working_sets,
                            sim.normal_d_working_sets,
                            [(p.event_index, p.instructions, p.cycles,
                              p.hinted) for p in sim.event_profiles]))
        assert results[0] == results[1]

    def test_unknown_kernel_rejected(self, tiny_trace):
        with pytest.raises(ValueError, match="unknown kernel"):
            Simulator(tiny_trace, presets.by_name("nl"), kernel="vector")


class TestVectorBitIdentity:
    """The packed loop run twice over ONE shared trace object, against the
    object reference on a fresh trace. ``ExperimentRunner`` hands the same
    trace to every configuration it simulates, so nothing a run leaves on
    the trace (packed streams, decoded events) may perturb the next run.
    The class keeps the name of the cold-vs-warm checks it inherits from
    the removed vector kernel."""

    @staticmethod
    def _shared_trace_runs(trace, config, runs=2):
        return [Simulator(trace, config).run().to_dict()
                for _ in range(runs)]

    @pytest.mark.parametrize("preset", presets.preset_names())
    def test_every_preset_tiny_app(self, preset, tiny_app):
        config = presets.by_name(preset)
        obj = Simulator(EventTrace(tiny_app, scale=1.0, seed=3),
                        config, kernel="object").run()
        shared = EventTrace(tiny_app, scale=1.0, seed=3)
        for got in self._shared_trace_runs(shared, config):
            assert got == obj.to_dict()

    @pytest.mark.parametrize("preset",
                             ["baseline", "nl", "esp_nl", "runahead_nl"])
    def test_headline_presets_real_app(self, preset):
        config = presets.by_name(preset)
        obj = Simulator(EventTrace(get_app("pixlr"), scale=0.25, seed=0),
                        config, kernel="object").run()
        shared = EventTrace(get_app("pixlr"), scale=0.25, seed=0)
        for got in self._shared_trace_runs(shared, config):
            assert got == obj.to_dict()

    def test_working_sets_and_event_profiles_match(self, tiny_app):
        config = presets.by_name("nl")
        shared = EventTrace(tiny_app, scale=1.0, seed=0)
        results = []
        # object reference, then the packed loop twice on one trace
        for kernel, trace in (
                ("object", EventTrace(tiny_app, scale=1.0, seed=0)),
                ("packed", shared), ("packed", shared)):
            sim = Simulator(trace, config, kernel=kernel)
            sim.collect_working_sets = True
            sim.collect_event_profile = True
            sim.run()
            results.append((sim.normal_i_working_sets,
                            sim.normal_d_working_sets,
                            [(p.event_index, p.instructions, p.cycles,
                              p.hinted) for p in sim.event_profiles]))
        assert results[0] == results[1] == results[2]
