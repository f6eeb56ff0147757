"""Unit tests for pre-execution contexts and recorded hints."""

from repro.esp import PreExecState, RecordedHints
from repro.sim.config import EspConfig


class TestRecordedHints:
    def test_for_mode_sizes(self):
        config = EspConfig(enabled=True)
        h0 = RecordedHints.for_mode(config, 0)
        h1 = RecordedHints.for_mode(config, 1)
        assert h0.i_list.capacity_bits == 499 * 8
        assert h1.i_list.capacity_bits == 68 * 8
        assert h0.b_dir.capacity_bits == 566 * 8
        assert h1.b_tgt.capacity_bits == 6 * 8

    def test_for_mode_ideal_unbounded(self):
        config = EspConfig(enabled=True, ideal=True)
        hints = RecordedHints.for_mode(config, 1)
        assert hints.i_list.unbounded
        assert hints.b_dir.unbounded

    def test_promote_rehomes_budgets(self):
        config = EspConfig(enabled=True)
        hints = RecordedHints.for_mode(config, 1)
        hints.i_list.record(100, 1)
        hints.d_list.record(200, 1)
        promoted = hints.promote(config, 0)
        assert promoted.i_list.capacity_bits == 499 * 8
        assert promoted.i_list.expand() == hints.i_list.expand()
        assert promoted.d_list.expand() == hints.d_list.expand()

    def test_promote_ideal_is_identity(self):
        config = EspConfig(enabled=True, ideal=True)
        hints = RecordedHints.for_mode(config, 1)
        assert hints.promote(config, 0) is hints


class TestPreExecState:
    def test_defaults(self):
        state = PreExecState(event_index=3)
        assert state.position == 0
        assert state.stream is None
        assert not state.finished
        assert not state.exhausted
        assert state.ras == []

    def test_independent_ras_per_state(self):
        a = PreExecState(event_index=0)
        b = PreExecState(event_index=1)
        a.ras.append(0x1000)
        assert b.ras == []
