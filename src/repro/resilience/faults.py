"""Deterministic fault injection for the experiment harness.

``REPRO_FAULTS`` holds a comma-separated spec of fault kinds and firing
rates, e.g.::

    REPRO_FAULTS="corrupt_trace:0.1,kill_worker:0.05,torn_write:0.02,seed:7"

Kinds:

* ``corrupt_trace`` — flip one seeded byte of a just-written ``.espt``
  trace file (exercises the CRC footer + quarantine + regenerate path).
* ``torn_write`` — truncate a result-cache payload at a seeded point
  before it lands (exercises the digest envelope).
* ``kill_worker`` — ``os._exit`` a pool worker at task start (exercises
  ``BrokenProcessPool`` recovery and the timeout-bounded serial retry).
* ``interrupt`` — raise :class:`GridInterrupt` in the parent between grid
  tasks (exercises manifest persistence and ``repro run --resume``).

Every decision is a pure function of ``(seed, kind, token, draw index)``
— no wall clock, no process RNG — so a fault schedule replays exactly
under the same spec. The draw index advances per ``(kind, token)``: a
retried task (whose token embeds the attempt number) or a regenerated
artifact draws fresh, so injected faults cannot pin a task down forever.
The chaos suite (``tests/test_chaos.py``) uses this to prove that grids
run under injected faults terminate with results bit-identical to a
clean serial run.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from pathlib import Path

from repro.obs.metrics import get_registry

_FAULTS_ENV = "REPRO_FAULTS"

#: the fault kinds the harness wires up (unknown kinds in a spec are
#: carried but never queried)
KNOWN_KINDS = ("corrupt_trace", "torn_write", "kill_worker", "interrupt")

#: malformed spec parts already warned about (one warning per part)
_warned_parts: set[str] = set()


class GridInterrupt(KeyboardInterrupt):
    """Injected mid-grid interrupt (a stand-in for Ctrl-C / SIGKILL of the
    campaign driver). Subclasses :class:`KeyboardInterrupt` so broad
    ``except Exception`` handlers cannot swallow it."""


class FaultPlan:
    """A parsed fault spec plus the deterministic draw state."""

    def __init__(self, rates: dict[str, float] | None = None,
                 seed: int = 0) -> None:
        self.rates = {kind: min(max(float(rate), 0.0), 1.0)
                      for kind, rate in (rates or {}).items()}
        self.seed = int(seed)
        self._draws: dict[tuple[str, str], int] = {}

    @property
    def active(self) -> bool:
        """Whether any fault can ever fire."""
        return any(self.rates.values())

    # -- deterministic draws ---------------------------------------------------

    def fires(self, kind: str, token: str) -> bool:
        """Whether fault ``kind`` fires for ``token`` on this draw.

        Deterministic in ``(seed, kind, token, draw index)``; the index
        advances per call so repeated draws for the same token (retries,
        regenerated artifacts) are independent.
        """
        rate = self.rates.get(kind, 0.0)
        if rate <= 0.0:
            return False
        slot = (kind, token)
        n = self._draws.get(slot, 0)
        self._draws[slot] = n + 1
        digest = hashlib.sha256(
            f"{self.seed}|{kind}|{token}|{n}".encode()).digest()
        draw = int.from_bytes(digest[:8], "big") / 2 ** 64
        if draw < rate:
            get_registry().inc(f"faults.{kind}")
            return True
        return False

    def position(self, token: str, size: int) -> int:
        """A seeded byte position in ``[0, size)`` for ``token``."""
        digest = hashlib.sha256(
            f"{self.seed}|pos|{token}|{size}".encode()).digest()
        return int.from_bytes(digest[:8], "big") % max(1, size)

    # -- injection sites -------------------------------------------------------

    def corrupt_file(self, path: Path | str, token: str) -> bool:
        """Flip one seeded byte of ``path`` when ``corrupt_trace`` fires."""
        if not self.fires("corrupt_trace", token):
            return False
        path = Path(path)
        try:
            data = bytearray(path.read_bytes())
        except OSError:
            return False
        if not data:
            return False
        data[self.position(token, len(data))] ^= 0x40
        try:
            path.write_bytes(bytes(data))
        except OSError:
            return False
        return True

    def torn(self, payload: str, token: str) -> str | None:
        """The truncated payload when ``torn_write`` fires, else None."""
        if not self.fires("torn_write", token):
            return None
        return payload[:self.position(token, max(len(payload) - 1, 1))]

    def maybe_kill_worker(self, token: str) -> None:
        """``os._exit`` the process when ``kill_worker`` fires (the abrupt
        death — no exception, no cleanup — a real OOM kill produces)."""
        if self.fires("kill_worker", token):
            os._exit(137)

    def maybe_interrupt(self, token: str) -> None:
        """Raise :class:`GridInterrupt` when ``interrupt`` fires."""
        if self.fires("interrupt", token):
            raise GridInterrupt(f"injected interrupt before {token}")

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str | None) -> "FaultPlan":
        """Parse a ``kind:rate,...`` spec (malformed parts warn once and
        are skipped; ``seed:N`` sets the draw seed)."""
        rates: dict[str, float] = {}
        seed = 0
        for part in (spec or "").split(","):
            part = part.strip()
            if not part:
                continue
            name, _, raw = part.partition(":")
            name = name.strip()
            try:
                value = float(raw)
            except ValueError:
                if part not in _warned_parts:
                    _warned_parts.add(part)
                    warnings.warn(
                        f"ignoring malformed {_FAULTS_ENV} entry {part!r}",
                        RuntimeWarning, stacklevel=3)
                continue
            if name == "seed":
                seed = int(value)
            else:
                rates[name] = value
        return cls(rates, seed)

    @classmethod
    def from_env(cls) -> "FaultPlan":
        """The plan described by ``REPRO_FAULTS`` (inactive when unset)."""
        return cls.from_spec(os.environ.get(_FAULTS_ENV))


#: lazily initialised process-wide plan (see :func:`get_fault_plan`)
_PLAN: FaultPlan | None = None


def get_fault_plan() -> FaultPlan:
    """The process-wide fault plan; first call parses ``REPRO_FAULTS``.

    Worker processes inherit the environment, so a spec set in the parent
    injects faults on both sides of the process-pool boundary.
    """
    global _PLAN
    if _PLAN is None:
        _PLAN = FaultPlan.from_env()
    return _PLAN


def set_fault_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` (None re-arms lazy env parsing); returns the
    previous plan."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    return previous
