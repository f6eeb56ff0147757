"""Golden regression test for the branch predictor.

One seeded stream of ~20k operations drives the predictor through every
entry point the simulator uses: all five branch kinds, with and without
``count``, B-list training (``train_ahead``) on a shadow path register,
``install_indirect_target``, ``clone``, PIR save/restore, RAS
snapshot/restore and the update-free ``predict_*`` probes of the
no-update design point. The stream runs at the default sizing and at a
small sizing whose tables overflow and whose loop counters saturate.

Each call's outcome is encoded as ``mispredicted | minor_bubble << 1``
and hashed, together with the final tables, RAS, PIR and counters, and
compared against ``tests/golden_branch.json``. Any change to what the
predictor predicts or learns fails here before it can move a figure.
Regenerate only on purpose with::

    PYTHONPATH=src python tests/test_branch_digest.py
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from repro.branch import PentiumMPredictor
from repro.isa import (
    KIND_BRANCH,
    KIND_CALL,
    KIND_IBRANCH,
    KIND_JUMP,
    KIND_RETURN,
)
from repro.sim.config import BranchPredictorConfig

GOLDEN = Path(__file__).with_name("golden_branch.json")

SEED = 0
OPERATIONS = 20_000
SIZINGS = {
    "default": BranchPredictorConfig(),
    "small": BranchPredictorConfig(
        global_entries=64, local_entries=128, loop_entries=16,
        btb_entries=32, ibtb_entries=8, pir_bits=9, local_history_bits=3,
        loop_max_count=8),
}

#: conditional sites: (pc, taken target, behaviour, parameter)
_COND_SITES = 400
#: direct jump/call sites: more than the default BTB holds
_DIRECT_SITES = 3000
#: indirect sites: more than the default iBTB holds
_INDIRECT_SITES = 300


def _sites(rng: random.Random):
    cond = []
    for i in range(_COND_SITES):
        behaviour = rng.choice(("loop", "biased", "random"))
        parameter = rng.randint(1, 12) if behaviour == "loop" \
            else rng.random()
        cond.append((0x40_0000 + i * 4 * rng.randint(1, 9),
                     0x50_0000 + i * 64, behaviour, parameter))
    direct = [(0x60_0000 + i * 4 * rng.randint(1, 5), 0x70_0000 + i * 128)
              for i in range(_DIRECT_SITES)]
    indirect = [(0x80_0000 + i * 12,
                 [0x90_0000 + rng.randrange(1 << 16) * 4
                  for _ in range(rng.randint(1, 3))])
                for i in range(_INDIRECT_SITES)]
    # one hot loop whose trip count outruns every loop_max_count
    cond[0] = cond[0][:2] + ("loop", 100)
    return cond, direct, indirect


def _conditional(rng, cond, trips: dict) -> tuple[int, bool, int]:
    site = cond[0] if rng.random() < 0.1 else rng.choice(cond)
    pc, target, behaviour, parameter = site
    if behaviour == "loop":
        done = trips.get(pc, 0)
        taken = done < parameter
        trips[pc] = done + 1 if taken else 0
    elif behaviour == "biased":
        taken = rng.random() < 0.9 if parameter > 0.5 \
            else rng.random() < 0.1
    else:
        taken = rng.random() < 0.5
    if rng.random() < 0.03:
        target += 4  # a changed taken target: a BTB miss on a known site
    return pc, taken, target


def _state(bp: PentiumMPredictor) -> tuple:
    loops = [(pc, e.trip, e.count, e.confidence)
             for pc, e in bp._loops.items()]
    return (bp._global_tags, bp._global_ctr, bp._local_hist, bp._local_ctr,
            loops, list(bp._btb.items()), list(bp._ibtb.items()),
            bp._ras, bp.pir, bp.predictions, bp.mispredictions)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def drive(config: BranchPredictorConfig) -> dict:
    """Run the seeded operation stream and summarise what came out."""
    rng = random.Random(SEED)
    cond, direct, indirect = _sites(rng)
    bp = PentiumMPredictor(config)
    outcomes: list[int] = []
    trained: list[int] = []
    probes: list = []
    trips: dict[int, int] = {}
    calls: list[int] = []  # the program's real return addresses
    saved_pirs: list[int] = []
    saved_ras: list[list[int]] = []
    shadow = 0
    for _ in range(OPERATIONS):
        draw = rng.random()
        if draw < 0.72:
            which = rng.random()
            count = rng.random() < 0.8
            if which < 0.5:
                kind = KIND_BRANCH
                pc, taken, target = _conditional(rng, cond, trips)
            elif which < 0.72:
                kind = KIND_JUMP if which < 0.6 else KIND_CALL
                pc, target = rng.choice(direct)
                taken = True
                if rng.random() < 0.03:
                    target += 8
            elif which < 0.86:
                kind = KIND_RETURN
                pc = 0xA0_0000 + rng.randrange(64) * 4
                taken = True
                target = calls.pop() if calls and rng.random() < 0.9 \
                    else 0xB0_0000 + rng.randrange(256) * 4
            else:
                kind = KIND_IBRANCH
                pc, targets = rng.choice(indirect)
                target = rng.choice(targets)
                taken = rng.random() < 0.95
            if kind == KIND_CALL or kind == KIND_IBRANCH:
                calls.append(pc + 4)
                del calls[:-32]
            out = bp.execute_branch(pc, kind, taken, target, count=count)
            outcomes.append(out)
        elif draw < 0.82:
            if rng.random() < 0.1:
                shadow = bp.save_pir()
            if rng.random() < 0.8:
                kind = KIND_BRANCH
                pc, taken, target = _conditional(rng, cond, trips)
            else:
                kind = KIND_IBRANCH
                pc, targets = rng.choice(indirect)
                target = rng.choice(targets)
                taken = True
            shadow = bp.train_ahead(pc, kind, taken, target, shadow)
            trained.append(shadow)
        elif draw < 0.86:
            pc, targets = rng.choice(indirect)
            bp.install_indirect_target(pc, rng.choice(targets))
        elif draw < 0.90:
            if saved_pirs and rng.random() < 0.5:
                bp.restore_pir(saved_pirs.pop())
            else:
                saved_pirs.append(bp.save_pir())
        elif draw < 0.94:
            if saved_ras and rng.random() < 0.5:
                bp.restore_ras(saved_ras.pop())
            elif rng.random() < 0.2:
                bp.clear_ras()
            else:
                saved_ras.append(bp.snapshot_ras())
        elif draw < 0.9995:
            pc, _, _, _ = rng.choice(cond)
            ipc, _ = rng.choice(indirect)
            probes.append((bp.predict_direction(pc),
                           bp.predict_target(ipc, KIND_IBRANCH),
                           bp.predict_target(pc, KIND_BRANCH),
                           bp.predict_target(pc, KIND_RETURN)))
        else:
            bp = bp.clone()
    return {"outcomes": _digest(outcomes),
            "outcome_counts": {str(code): n for code, n
                               in sorted(Counter(outcomes).items())},
            "trained": _digest(trained),
            "probes": _digest(probes),
            "state": _digest(_state(bp)),
            "predictions": bp.predictions,
            "mispredictions": bp.mispredictions}


def compute() -> dict:
    return {"seed": SEED, "operations": OPERATIONS,
            "sizings": {name: drive(config)
                        for name, config in SIZINGS.items()}}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_point_matches(golden):
    assert (golden["seed"], golden["operations"]) == (SEED, OPERATIONS)
    assert set(golden["sizings"]) == set(SIZINGS)


def test_golden_covers_every_outcome(golden):
    for record in golden["sizings"].values():
        assert set(record["outcome_counts"]) == {"0", "1", "2"}


@pytest.mark.parametrize("sizing", sorted(SIZINGS))
def test_predictor_unchanged(sizing, golden):
    assert drive(SIZINGS[sizing]) == golden["sizings"][sizing]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=2, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
