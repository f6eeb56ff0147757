"""Unit tests for the instruction model and stream helpers."""

import pytest

from repro.isa import (
    BLOCK_BYTES,
    INSTR_BYTES,
    KIND_ALU,
    KIND_BRANCH,
    KIND_CALL,
    KIND_IBRANCH,
    KIND_JUMP,
    KIND_LOAD,
    KIND_NAMES,
    KIND_RETURN,
    KIND_STORE,
    Instruction,
    PackedStream,
    block_of,
    is_branch_kind,
    is_memory_kind,
    stream_footprint,
    summarize_stream,
)


class TestBlockOf:
    def test_zero(self):
        assert block_of(0) == 0

    def test_within_first_block(self):
        assert block_of(63) == 0

    def test_block_boundary(self):
        assert block_of(64) == 1

    def test_large_address(self):
        assert block_of(0x40_0000) == 0x40_0000 // 64

    def test_block_bytes_consistency(self):
        assert block_of(BLOCK_BYTES * 7) == 7


class TestKindPredicates:
    @pytest.mark.parametrize("kind", [KIND_BRANCH, KIND_JUMP, KIND_CALL,
                                      KIND_RETURN, KIND_IBRANCH])
    def test_branch_kinds(self, kind):
        assert is_branch_kind(kind)
        assert not is_memory_kind(kind)

    @pytest.mark.parametrize("kind", [KIND_LOAD, KIND_STORE])
    def test_memory_kinds(self, kind):
        assert is_memory_kind(kind)
        assert not is_branch_kind(kind)

    def test_alu_is_neither(self):
        assert not is_branch_kind(KIND_ALU)
        assert not is_memory_kind(KIND_ALU)

    def test_all_kinds_named(self):
        for kind in (KIND_ALU, KIND_LOAD, KIND_STORE, KIND_BRANCH, KIND_JUMP,
                     KIND_CALL, KIND_RETURN, KIND_IBRANCH):
            assert kind in KIND_NAMES


class TestInstruction:
    def test_defaults(self):
        inst = Instruction(0x1000, KIND_ALU)
        assert inst.addr == 0
        assert inst.taken is False
        assert inst.target == 0

    def test_equality(self):
        a = Instruction(4, KIND_LOAD, addr=128)
        b = Instruction(4, KIND_LOAD, addr=128)
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_on_kind(self):
        assert Instruction(4, KIND_LOAD, addr=1) != \
            Instruction(4, KIND_STORE, addr=1)

    def test_eq_other_type(self):
        assert Instruction(4, KIND_ALU) != "not an instruction"

    def test_slots(self):
        inst = Instruction(4, KIND_ALU)
        with pytest.raises(AttributeError):
            inst.extra_field = 1

    def test_repr_mentions_kind(self):
        assert "load" in repr(Instruction(4, KIND_LOAD, addr=64))
        assert "branch" in repr(Instruction(4, KIND_BRANCH, taken=True,
                                            target=64))


def _sample_stream():
    return [
        Instruction(0, KIND_ALU),
        Instruction(4, KIND_LOAD, addr=256),
        Instruction(8, KIND_STORE, addr=256 + 64),
        Instruction(12, KIND_BRANCH, taken=True, target=64),
        Instruction(64, KIND_BRANCH, taken=False),
        Instruction(68, KIND_CALL, taken=True, target=1024),
        Instruction(1024, KIND_RETURN, taken=True, target=72),
    ]


class TestSummarizeStream:
    def test_counts(self):
        stats = summarize_stream(_sample_stream())
        assert stats.instructions == 7
        assert stats.loads == 1
        assert stats.stores == 1
        assert stats.branches == 4
        assert stats.conditional_branches == 2
        assert stats.taken_branches == 3

    def test_footprints(self):
        stats = summarize_stream(_sample_stream())
        # pcs 0..12 in block 0, 64..72 in block 1, 1024 in block 16
        assert len(stats.i_blocks) == 3
        assert stats.i_footprint_bytes == 3 * 64
        # data blocks 4 and 5
        assert len(stats.d_blocks) == 2
        assert stats.d_footprint_bytes == 2 * 64

    def test_empty_stream(self):
        stats = summarize_stream([])
        assert stats.instructions == 0
        assert stats.i_footprint_bytes == 0


class TestStreamFootprint:
    def test_matches_summarize(self):
        stream = _sample_stream()
        i_blocks, d_blocks = stream_footprint(stream)
        stats = summarize_stream(stream)
        assert i_blocks == len(stats.i_blocks)
        assert d_blocks == len(stats.d_blocks)

    def test_instruction_size_constant(self):
        assert INSTR_BYTES == 4


class TestPackedAnalysis:
    """The analysis helpers read a ``PackedStream`` column-wise and agree
    with the ``Instruction``-list form."""

    def test_summarize_equal_for_both_forms(self):
        stream = _sample_stream()
        assert summarize_stream(PackedStream.from_instructions(stream)) \
            == summarize_stream(stream)

    def test_generated_event_both_forms(self, tiny_trace):
        for k in range(len(tiny_trace)):
            event = tiny_trace.event(k)
            assert summarize_stream(event.packed_true()) \
                == summarize_stream(event.true_stream)
            assert stream_footprint(event.packed_spec()) \
                == stream_footprint(event.spec_stream)
