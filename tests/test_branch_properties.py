"""Property-based tests for the branch predictor."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch import BUBBLE, MISPREDICT, PentiumMPredictor
from repro.isa import (
    KIND_BRANCH,
    KIND_CALL,
    KIND_IBRANCH,
    KIND_JUMP,
    KIND_RETURN,
)

branch_events = st.lists(
    st.tuples(st.sampled_from([KIND_BRANCH, KIND_JUMP, KIND_CALL,
                               KIND_IBRANCH]),
              st.integers(min_value=0, max_value=60),  # pc slot
              st.booleans(),  # taken (conditionals)
              st.integers(min_value=0, max_value=60)),  # target slot
    max_size=250)


def run(predictor, events):
    outcomes = []
    for kind, pc_slot, taken, target_slot in events:
        pc = 0x40_0000 + pc_slot * 4
        target = 0x48_0000 + target_slot * 4
        taken = taken if kind == KIND_BRANCH else True
        outcomes.append(predictor.execute_branch(pc, kind, taken, target))
    return outcomes


@given(branch_events)
@settings(max_examples=60, deadline=None)
def test_counters_consistent(events):
    bp = PentiumMPredictor()
    outcomes = run(bp, events)
    assert bp.predictions == len(events)
    assert bp.mispredictions == sum(o == MISPREDICT for o in outcomes)
    assert 0.0 <= bp.misprediction_rate <= 1.0


@given(branch_events)
@settings(max_examples=40, deadline=None)
def test_determinism(events):
    a = run(PentiumMPredictor(), events)
    b = run(PentiumMPredictor(), events)
    assert [o == MISPREDICT for o in a] == [o == MISPREDICT for o in b]
    assert [o == BUBBLE for o in a] == [o == BUBBLE for o in b]


@given(branch_events)
@settings(max_examples=40, deadline=None)
def test_clone_predicts_identically(events):
    bp = PentiumMPredictor()
    run(bp, events)
    twin = bp.clone()
    probe = [(KIND_BRANCH, i, True, i) for i in range(20)]
    assert [o == MISPREDICT for o in run(bp, probe)] == \
        [o == MISPREDICT for o in run(twin, probe)]


@given(branch_events)
@settings(max_examples=40, deadline=None)
def test_flush_and_bubble_mutually_exclusive(events):
    for outcome in run(PentiumMPredictor(), events):
        assert outcome in (0, MISPREDICT, BUBBLE)


@given(st.integers(min_value=1, max_value=200))
@settings(max_examples=25, deadline=None)
def test_steady_branch_converges(n):
    """A monomorphic always-taken branch is eventually always predicted."""
    bp = PentiumMPredictor()
    outcomes = [bp.execute_branch(0x1000, KIND_BRANCH, True, 0x2000)
                for _ in range(n + 8)]
    assert not any(o == MISPREDICT for o in outcomes[8:])


@given(st.lists(st.integers(min_value=0, max_value=15), min_size=1,
                max_size=16))
@settings(max_examples=40, deadline=None)
def test_ras_matches_a_real_stack(call_sites):
    """Calls followed by returns in LIFO order always predict."""
    bp = PentiumMPredictor()
    stack = []
    for i, site in enumerate(call_sites):
        pc = 0x1000 + site * 64
        bp.execute_branch(pc, KIND_CALL, True, 0x9000 + i * 256)
        stack.append(pc + 4)
    while stack:
        expected = stack.pop()
        outcome = bp.execute_branch(0xA000, KIND_RETURN, True, expected)
        assert outcome != MISPREDICT
