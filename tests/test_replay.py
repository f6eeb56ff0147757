"""Unit tests for the normal-mode replay engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch import PentiumMPredictor
from repro.esp import RecordedHints, ReplayEngine
from repro.esp.replay import NEVER
from repro.isa import KIND_BRANCH, KIND_IBRANCH
from repro.memory import MemoryHierarchy
from repro.sim.config import EspConfig
from repro.sim.results import EspStats


def make_engine(config: EspConfig | None = None):
    config = config or EspConfig(enabled=True)
    hierarchy = MemoryHierarchy()
    predictor = PentiumMPredictor()
    stats = EspStats()
    return ReplayEngine(config, hierarchy, predictor, stats), \
        hierarchy, predictor, stats


def hints_with(i_blocks=(), d_blocks=(), branches=(),
               config: EspConfig | None = None) -> RecordedHints:
    config = config or EspConfig(enabled=True)
    hints = RecordedHints.for_mode(config, 0)
    for block, icount in i_blocks:
        hints.i_list.record(block, icount)
    for block, icount in d_blocks:
        hints.d_list.record(block, icount)
    for pc, taken, kind, target, icount in branches:
        hints.b_dir.record(pc, taken, kind == KIND_IBRANCH, target, kind,
                           icount)
    return hints


class TestAttach:
    def test_inactive_without_hints(self):
        engine, _, _, stats = make_engine()
        engine.attach(None, cycle=0)
        assert not engine.active
        assert stats.hinted_events == 0

    def test_active_with_hints(self):
        engine, _, _, stats = make_engine()
        engine.attach(hints_with(i_blocks=[(100, 5)]), cycle=0)
        assert engine.active
        assert stats.hinted_events == 1

    def test_headstart_prefetch_at_attach(self):
        engine, hierarchy, _, stats = make_engine()
        # icount 5 is well within headstart + lead
        engine.attach(hints_with(i_blocks=[(100, 5)]), cycle=0)
        assert stats.list_prefetches_i == 1
        res = hierarchy.access_i(100, cycle=hierarchy.mem_latency + 1)
        assert res.prefetched

    def test_far_entries_not_prefetched_at_attach(self):
        engine, _, _, stats = make_engine()
        engine.attach(hints_with(i_blocks=[(100, 5000)]), cycle=0)
        assert stats.list_prefetches_i == 0

    def test_ablation_switches(self):
        config = EspConfig(enabled=True, use_i_list=False,
                           use_d_list=False, use_b_list=False)
        engine, _, _, _ = make_engine(config)
        engine.attach(
            hints_with(i_blocks=[(100, 5)], d_blocks=[(200, 5)],
                       branches=[(0x1000, True, KIND_BRANCH, 0x2000, 5)],
                       config=config),
            cycle=0)
        assert not engine.active


class TestPoll:
    def test_prefetch_issued_at_lead(self):
        engine, _, _, stats = make_engine()
        engine.attach(hints_with(i_blocks=[(100, 1000)]), cycle=0)
        engine.poll(icount=1000 - 191, cycle=100)
        assert stats.list_prefetches_i == 0
        engine.poll(icount=1000 - 190, cycle=101)
        assert stats.list_prefetches_i == 1

    def test_d_entries_polled(self):
        engine, hierarchy, _, stats = make_engine()
        engine.attach(hints_with(d_blocks=[(300, 400)]), cycle=0)
        engine.poll(icount=300, cycle=50)
        assert stats.list_prefetches_d == 1

    def test_entries_issue_once(self):
        engine, _, _, stats = make_engine()
        engine.attach(hints_with(i_blocks=[(100, 50)]), cycle=0)
        engine.poll(100, 10)
        engine.poll(200, 20)
        assert stats.list_prefetches_i == 1

    def test_poll_inactive_noop(self):
        engine, _, _, stats = make_engine()
        engine.attach(None, 0)
        engine.poll(100, 10)
        assert stats.list_prefetches_i == 0


class TestIdeal:
    def test_ideal_installs_immediately(self):
        config = EspConfig(enabled=True, ideal=True)
        engine, hierarchy, _, stats = make_engine(config)
        hints = hints_with(i_blocks=[(100, 5000)], d_blocks=[(200, 5000)],
                           config=config)
        engine.attach(hints, cycle=0)
        assert hierarchy.l1i.contains(100)
        assert hierarchy.l1d.contains(200)
        assert stats.list_prefetches_i == 1
        assert stats.list_prefetches_d == 1


class TestBranchTraining:
    def test_direction_training_improves_prediction(self):
        engine, _, predictor, stats = make_engine()
        pc = 0x1000
        branches = [(pc, True, KIND_BRANCH, 0x2000, i * 10)
                    for i in range(1, 5)]
        engine.attach(hints_with(branches=branches), cycle=0)
        engine.before_branch(1)  # trains entries within the lead window
        assert stats.blist_trained > 0
        assert predictor.predict_direction(pc) is True

    def test_indirect_target_installed_just_in_time(self):
        engine, _, predictor, _ = make_engine()
        branches = [(0x1000, True, KIND_IBRANCH, 0x7000, 10)]
        engine.attach(hints_with(branches=branches), cycle=0)
        engine.before_branch(1)
        assert predictor.predict_target(0x1000, KIND_IBRANCH) == 0x7000

    def test_training_capped_at_lead(self):
        config = EspConfig(enabled=True, blist_train_lead=2)
        engine, _, _, stats = make_engine(config)
        branches = [(0x1000 + 4 * i, True, KIND_BRANCH, 0x2000, i)
                    for i in range(10)]
        engine.attach(hints_with(branches=branches, config=config), cycle=0)
        engine.before_branch(1)
        assert stats.blist_trained == 2
        engine.before_branch(2)
        assert stats.blist_trained == 3

    def test_no_entries_noop(self):
        engine, _, _, stats = make_engine()
        engine.attach(hints_with(i_blocks=[(1, 1)]), cycle=0)
        engine.before_branch(1)
        assert stats.blist_trained == 0


class TestReattach:
    def test_attach_resets_pointers(self):
        engine, _, _, stats = make_engine()
        engine.attach(hints_with(i_blocks=[(100, 50)]), cycle=0)
        assert stats.list_prefetches_i == 1
        engine.attach(hints_with(i_blocks=[(300, 50)]), cycle=10)
        assert stats.list_prefetches_i == 2
        assert engine._i_idx == 1


# -- due-gated polling (the packed loop's contract with poll) ------------------

_entries = st.lists(st.tuples(st.integers(min_value=0, max_value=2000),
                              st.integers(min_value=0, max_value=3000)),
                    max_size=40)


@given(_entries, _entries,
       st.lists(st.integers(min_value=-60, max_value=3500), max_size=120,
                unique=True))
@settings(max_examples=80, deadline=None)
def test_polling_when_due_matches_polling_every_block(i_blocks, d_blocks,
                                                      block_changes):
    """Polling only once the icount ``poll`` returned is reached issues
    the same (side, block, cycle) prefetches and the same list counters
    as polling at every block change."""
    runs = []
    for gated in (False, True):
        engine, hierarchy, _, stats = make_engine()
        issued = []
        prefetch = hierarchy.prefetch

        def recording_prefetch(side, block, cycle, prefetch=prefetch,
                               issued=issued):
            issued.append((side, block, cycle))
            return prefetch(side, block, cycle)

        hierarchy.prefetch = recording_prefetch
        engine.attach(hints_with(i_blocks=i_blocks, d_blocks=d_blocks),
                      cycle=0)
        due = engine.due
        for icount in sorted(block_changes):
            cycle = 3 * icount + 500
            if not gated:
                engine.poll(icount, cycle)
            elif icount >= due:
                due = engine.poll(icount, cycle)
        runs.append((issued, stats.list_prefetches_i,
                     stats.list_prefetches_d))
    assert runs[0] == runs[1]


@given(_entries, _entries, st.integers(min_value=-60, max_value=3500))
@settings(max_examples=60, deadline=None)
def test_poll_returns_the_next_due_icount(i_blocks, d_blocks, icount):
    """Nothing issues before the icount ``poll`` returns; something
    issues at it."""
    engine, _, _, stats = make_engine()
    engine.attach(hints_with(i_blocks=i_blocks, d_blocks=d_blocks), cycle=0)
    due = engine.poll(icount, 10)
    if due == NEVER:
        return
    assert due > icount
    issued = stats.list_prefetches_i + stats.list_prefetches_d
    assert engine.poll(due - 1, 20) == due
    assert stats.list_prefetches_i + stats.list_prefetches_d == issued
    engine.poll(due, 30)
    assert stats.list_prefetches_i + stats.list_prefetches_d > issued


# -- due-gated B-list training (the packed loop's contract with before_branch)

_branch_entries = st.lists(
    st.tuples(st.integers(min_value=0, max_value=11), st.booleans(),
              st.booleans(), st.integers(min_value=0, max_value=3)),
    max_size=40)


def _predictor_state(bp: PentiumMPredictor) -> tuple:
    loops = [(pc, e.trip, e.count, e.confidence)
             for pc, e in bp._loops.items()]
    return (bp._global_tags, bp._global_ctr, bp._local_hist, bp._local_ctr,
            loops, list(bp._btb.items()), list(bp._ibtb.items()), bp.pir)


@given(_branch_entries, st.integers(min_value=0, max_value=16),
       st.integers(min_value=0, max_value=60))
@settings(max_examples=120, deadline=None)
def test_training_when_due_matches_training_every_branch(entries, lead,
                                                         n_branches):
    """Calling ``before_branch`` only from the index it last returned
    trains the same tables, counts the same ``blist_trained`` and installs
    the same iBTB targets at the same branches as calling it before every
    recordable branch, while the live predictor executes the recorded
    path in between."""
    branches = []
    for site, taken, indirect, target in entries:
        pc = 0x4000 + 0x40 * site
        kind = KIND_IBRANCH if indirect else KIND_BRANCH
        branches.append((pc, taken or indirect, kind,
                         0x9000 + 0x100 * target, 10 * len(branches)))
    config = EspConfig(enabled=True, blist_train_lead=lead)
    runs = []
    for gated in (False, True):
        engine, _, predictor, stats = make_engine(config)
        installs = []
        install = predictor.install_indirect_target

        def recording_install(pc, target, install=install,
                              installs=installs):
            installs.append((branch, pc, target))
            install(pc, target)

        predictor.install_indirect_target = recording_install
        engine.attach(hints_with(branches=branches, config=config), cycle=0)
        due = engine.branch_due
        flags = []
        for branch in range(1, n_branches + 1):
            if not gated:
                engine.before_branch(branch)
            elif branch >= due:
                due = engine.before_branch(branch)
            pc, taken, kind, target, _ = branches[(branch - 1)
                                                  % len(branches)] \
                if branches else (0x4000, True, KIND_BRANCH, 0x9000, 0)
            flags.append(predictor.execute_branch(pc, kind, taken, target))
        runs.append((_predictor_state(predictor), stats.blist_trained,
                     installs, flags))
    assert runs[0] == runs[1]


@given(_branch_entries, st.integers(min_value=0, max_value=16))
@settings(max_examples=60, deadline=None)
def test_before_branch_is_never_due_once_spent(entries, lead):
    """After the last entry is trained and installed the engine returns
    :data:`NEVER`; with no lead, that is one call past the last entry."""
    branches = [(0x4000 + 0x40 * site, True, KIND_BRANCH, 0x9000, 10 * i)
                for i, (site, _, _, _) in enumerate(entries)]
    config = EspConfig(enabled=True, blist_train_lead=lead)
    engine, _, _, stats = make_engine(config)
    engine.attach(hints_with(branches=branches, config=config), cycle=0)
    n = len(engine._b_entries)
    assert engine.branch_due == (1 if n else NEVER)
    due, branch = engine.branch_due, 0
    while due != NEVER:
        branch = due
        due = engine.before_branch(branch)
    assert stats.blist_trained == n
    assert branch == (n + 1 if lead == 0 and n else n)
