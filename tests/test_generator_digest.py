"""Golden regression test for the event-stream generator.

For every app at a small scale and two seeds, each event's packed true
stream (and its speculative stream, when it diverges) is hashed column by
column — ``pc``, ``kind``, ``addr``, ``taken``, ``target`` and ``block``
— and compared, together with the event's ``diverged`` flag and
``handler_fid``, against ``tests/golden_generator.json``. Any change to
what the walker emits, or to the order it draws random numbers in, fails
here before it can move a figure. Regenerate only on purpose with::

    PYTHONPATH=src python tests/test_generator_digest.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.workloads import APP_NAMES, get_app
from repro.workloads.generator import EventTrace

GOLDEN = Path(__file__).with_name("golden_generator.json")

#: the smallest scale: three full-length events per app
SCALE = 0.01
#: seed 0 diverges on gmaps; seed 1 on cnn, facebook and gmaps
SEEDS = (0, 1)
COLUMNS = ("pc", "kind", "addr", "taken", "target", "block")


def _stream_digest(packed) -> str:
    blob = repr(tuple(getattr(packed, column) for column in COLUMNS))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _event_record(event) -> dict:
    record = {"handler_fid": event.handler_fid,
              "diverged": event.diverged,
              "true": _stream_digest(event.packed_true())}
    if event.diverged:
        record["spec"] = _stream_digest(event.packed_spec())
    return record


def compute_trace(app: str, seed: int) -> list[dict]:
    trace = EventTrace(get_app(app), scale=SCALE, seed=seed)
    return [_event_record(trace.event(k)) for k in range(len(trace))]


def compute() -> dict:
    return {"scale": SCALE, "seeds": list(SEEDS),
            "traces": {f"{app}/{seed}": compute_trace(app, seed)
                       for seed in SEEDS for app in APP_NAMES}}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_point_matches(golden):
    assert (golden["scale"], golden["seeds"]) == (SCALE, list(SEEDS))
    assert set(golden["traces"]) == {f"{app}/{seed}" for seed in SEEDS
                                     for app in APP_NAMES}


def test_golden_covers_a_diverged_event(golden):
    assert any(record["diverged"] for records in golden["traces"].values()
               for record in records)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("app", APP_NAMES)
def test_event_streams_unchanged(app, seed, golden):
    assert compute_trace(app, seed) == golden["traces"][f"{app}/{seed}"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=2, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
