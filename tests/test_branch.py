"""Unit tests for the Pentium M branch predictor model."""

import pytest

from repro.branch import BUBBLE, MISPREDICT, PentiumMPredictor
from repro.isa import (
    KIND_ALU,
    KIND_BRANCH,
    KIND_CALL,
    KIND_IBRANCH,
    KIND_JUMP,
    KIND_RETURN,
)


@pytest.fixture
def bp():
    return PentiumMPredictor()


class TestConditionalDirection:
    def test_learns_always_taken(self, bp):
        pc = 0x1000
        for _ in range(8):
            bp.execute_branch(pc, KIND_BRANCH, True, 0x2000)
        out = bp.execute_branch(pc, KIND_BRANCH, True, 0x2000)
        assert out != MISPREDICT

    def test_learns_never_taken(self, bp):
        pc = 0x1000
        for _ in range(8):
            bp.execute_branch(pc, KIND_BRANCH, False, 0)
        out = bp.execute_branch(pc, KIND_BRANCH, False, 0)
        assert out != MISPREDICT

    def test_flip_mispredicts(self, bp):
        pc = 0x1000
        for _ in range(8):
            bp.execute_branch(pc, KIND_BRANCH, True, 0x2000)
        out = bp.execute_branch(pc, KIND_BRANCH, False, 0)
        assert out == MISPREDICT

    def test_cold_target_is_minor_bubble(self, bp):
        # a cold conditional is predicted (weakly) taken by the local
        # table, so a taken instance has the right direction and an
        # unknown target
        pc = 0x1000
        assert bp.predict_direction(pc) is True
        out = bp.execute_branch(pc, KIND_BRANCH, True, 0x2000)
        assert out == BUBBLE

    def test_counters(self, bp):
        pc = 0x1000
        for _ in range(4):
            bp.execute_branch(pc, KIND_BRANCH, True, 0x2000)
        assert bp.predictions == 4
        assert 0 <= bp.mispredictions <= 4
        assert bp.misprediction_rate == bp.mispredictions / 4

    def test_count_false_does_not_touch_stats(self, bp):
        bp.execute_branch(0x1000, KIND_BRANCH, True, 0x2000, count=False)
        assert bp.predictions == 0

    def test_misprediction_rate_empty(self, bp):
        assert bp.misprediction_rate == 0.0

    def test_invalid_kind(self, bp):
        with pytest.raises(ValueError):
            bp.execute_branch(0, KIND_ALU, False, 0)


class TestLoopPredictor:
    def test_learns_fixed_trip_count(self, bp):
        pc = 0x3000
        trip = 5

        def run_loop():
            mispredicts = 0
            for i in range(trip):
                out = bp.execute_branch(pc, KIND_BRANCH, True, 0x3000)
                mispredicts += out == MISPREDICT
            out = bp.execute_branch(pc, KIND_BRANCH, False, 0)
            return mispredicts + (out == MISPREDICT)

        for _ in range(4):  # warm up trip count + confidence
            run_loop()
        assert run_loop() == 0  # exit predicted correctly


class TestTargets:
    def test_btb_learns_jump_target(self, bp):
        pc = 0x4000
        out = bp.execute_branch(pc, KIND_JUMP, True, 0x5000)
        assert out == BUBBLE
        out = bp.execute_branch(pc, KIND_JUMP, True, 0x5000)
        assert out != BUBBLE

    def test_ibtb_last_target(self, bp):
        pc = 0x4000
        out = bp.execute_branch(pc, KIND_IBRANCH, True, 0x5000)
        assert out == MISPREDICT  # cold
        out = bp.execute_branch(pc, KIND_IBRANCH, True, 0x5000)
        assert out != MISPREDICT
        out = bp.execute_branch(pc, KIND_IBRANCH, True, 0x6000)
        assert out == MISPREDICT  # target changed

    def test_install_indirect_target(self, bp):
        bp.install_indirect_target(0x4000, 0x7000)
        out = bp.execute_branch(0x4000, KIND_IBRANCH, True, 0x7000)
        assert out != MISPREDICT

    def test_ras_call_return_pairing(self, bp):
        bp.execute_branch(0x1000, KIND_CALL, True, 0x8000)
        out = bp.execute_branch(0x8004, KIND_RETURN, True, 0x1004)
        assert out != MISPREDICT

    def test_ras_pairing_for_indirect_calls(self, bp):
        bp.execute_branch(0x1000, KIND_IBRANCH, True, 0x8000)
        out = bp.execute_branch(0x8004, KIND_RETURN, True, 0x1004)
        assert out != MISPREDICT

    def test_empty_ras_mispredicts(self, bp):
        out = bp.execute_branch(0x8004, KIND_RETURN, True, 0x1004)
        assert out == MISPREDICT

    def test_clear_ras(self, bp):
        bp.execute_branch(0x1000, KIND_CALL, True, 0x8000)
        bp.clear_ras()
        out = bp.execute_branch(0x8004, KIND_RETURN, True, 0x1004)
        assert out == MISPREDICT

    def test_ras_snapshot_restore(self, bp):
        bp.execute_branch(0x1000, KIND_CALL, True, 0x8000)
        snap = bp.snapshot_ras()
        bp.clear_ras()
        bp.restore_ras(snap)
        out = bp.execute_branch(0x8004, KIND_RETURN, True, 0x1004)
        assert out != MISPREDICT

    def test_ras_depth_bounded(self, bp):
        for i in range(40):
            bp.execute_branch(0x1000 + 64 * i, KIND_CALL, True, 0x8000)
        assert len(bp.snapshot_ras()) <= 16
        # the oldest frames fall off the bottom
        assert bp.snapshot_ras()[-1] == 0x1000 + 64 * 39 + 4


class TestPathContext:
    def test_pir_advances_on_taken_conditional(self, bp):
        before = bp.save_pir()
        bp.execute_branch(0x1000, KIND_BRANCH, True, 0x2000)
        assert bp.save_pir() != before

    def test_pir_static_on_not_taken(self, bp):
        bp.execute_branch(0x1000, KIND_BRANCH, True, 0x2000)
        before = bp.save_pir()
        bp.execute_branch(0x3000, KIND_BRANCH, False, 0)
        assert bp.save_pir() == before

    def test_pir_not_advanced_by_direct_flow(self, bp):
        bp.execute_branch(0x1000, KIND_BRANCH, True, 0x2000)
        before = bp.save_pir()
        bp.execute_branch(0x2000, KIND_JUMP, True, 0x2100)
        bp.execute_branch(0x2100, KIND_CALL, True, 0x9000)
        bp.execute_branch(0x9000, KIND_RETURN, True, 0x2104)
        assert bp.save_pir() == before

    def test_save_restore(self, bp):
        bp.execute_branch(0x1000, KIND_BRANCH, True, 0x2000)
        saved = bp.save_pir()
        bp.execute_branch(0x1004, KIND_BRANCH, True, 0x2000)
        bp.restore_pir(saved)
        assert bp.save_pir() == saved


class TestTrainAhead:
    def test_training_improves_future_prediction(self, bp):
        pc = 0x1000
        pir = bp.save_pir()
        for _ in range(4):
            pir = bp.train_ahead(pc, KIND_BRANCH, True, 0x2000, pir)
        # live PIR never moved, so the live lookup sees the trained entry
        out = bp.execute_branch(pc, KIND_BRANCH, True, 0x2000)
        assert out != MISPREDICT

    def test_training_does_not_touch_live_pir(self, bp):
        before = bp.save_pir()
        bp.train_ahead(0x1000, KIND_BRANCH, True, 0x2000, 0x55)
        assert bp.save_pir() == before

    def test_training_does_not_touch_ras(self, bp):
        bp.execute_branch(0x1000, KIND_CALL, True, 0x8000)
        depth = len(bp.snapshot_ras())
        bp.train_ahead(0x2000, KIND_IBRANCH, True, 0x9000, 0)
        assert len(bp.snapshot_ras()) == depth

    def test_returns_advanced_pir(self, bp):
        pir0 = 0
        pir1 = bp.train_ahead(0x1000, KIND_BRANCH, True, 0x2000, pir0)
        assert pir1 != pir0
        pir2 = bp.train_ahead(0x1000, KIND_BRANCH, False, 0, pir1)
        assert pir2 == pir1  # not-taken does not advance the path


class TestClone:
    def test_clone_is_deep(self, bp):
        bp.execute_branch(0x1000, KIND_BRANCH, True, 0x2000)
        twin = bp.clone()
        for _ in range(8):
            twin.execute_branch(0x1000, KIND_BRANCH, False, 0)
        # original still predicts taken
        assert bp.predict_direction(0x1000) is True

    def test_clone_copies_tables(self, bp):
        for _ in range(6):
            bp.execute_branch(0x1000, KIND_BRANCH, True, 0x2000)
        twin = bp.clone()
        assert twin.predict_direction(0x1000) is True
