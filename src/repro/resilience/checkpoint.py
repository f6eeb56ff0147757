"""Generational mid-simulation checkpoints.

A :class:`CheckpointStore` persists the :meth:`~repro.sim.simulator.
Simulator.checkpoint` payloads one task produces under
``<cache>/checkpoints/``, one file per event boundary::

    <cache>/checkpoints/<task key>.e<position>.ckpt

Each file is a digest envelope (:func:`~repro.resilience.integrity.
wrap_result`) written atomically (temp file + ``os.replace``), and the
store keeps the newest :data:`CheckpointStore.KEEP_GENERATIONS`
generations so a checkpoint torn mid-write never strands the task: the
restore path verifies the newest generation first and *falls back* one
generation — quarantining the bad file, never deleting it — until a
payload both verifies and restores. Only after a task completes are its
(consumed, healthy) checkpoints removed; the quarantine-never-delete rule
applies solely to artifacts that failed verification.

Checkpoint writes honour the same ``torn_write`` fault injection as the
result cache, which is how the chaos suite proves the generational
fallback actually recovers.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.resilience.faults import get_fault_plan
from repro.resilience.integrity import quarantine, unwrap_result, wrap_result


class CheckpointStore:
    """Reads and writes one task's checkpoint generations."""

    #: newest generations kept on disk; older ones are pruned after each
    #: successful save (two survive a torn newest-generation write)
    KEEP_GENERATIONS = 2

    def __init__(self, cache_dir: Path | str, key: str) -> None:
        cache_dir = Path(cache_dir)
        self.dir = cache_dir / "checkpoints"
        self.quarantine_dir = cache_dir / "quarantine"
        self.key = key
        #: checkpoints persisted by this store instance
        self.written = 0
        #: generations skipped (quarantined) on the way to a valid restore
        self.fallbacks = 0

    def _path(self, position: int) -> Path:
        # zero-padded position keeps lexicographic order == event order
        return self.dir / f"{self.key}.e{position:08d}.ckpt"

    def _generations(self) -> list[Path]:
        """This task's checkpoint files, oldest first."""
        if not self.dir.is_dir():
            return []
        return sorted(self.dir.glob(f"{self.key}.e*.ckpt"))

    # -- writing -----------------------------------------------------------------

    def save(self, state: dict) -> Path | None:
        """Persist one checkpoint payload atomically; returns its path, or
        None when the write failed (checkpointing is best-effort — a full
        disk must not fail the simulation it protects)."""
        position = state["loop"]["position"]
        payload = wrap_result(state)
        torn = get_fault_plan().torn(payload, f"ckpt:{self.key}@{position}")
        if torn is not None:
            payload = torn
        path = self._path(position)
        tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            tmp.write_text(payload)
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return None
        self.written += 1
        for old in self._generations()[:-self.KEEP_GENERATIONS]:
            try:
                old.unlink()
            except OSError:
                pass
        return path

    # -- restoring ---------------------------------------------------------------

    def load_latest(self, apply) -> int | None:
        """Restore the newest valid generation via ``apply`` (typically
        :meth:`~repro.sim.simulator.Simulator.restore`).

        A generation that fails to read, verify, or apply is quarantined
        and the next-older one is tried (``fallbacks`` counts the skips);
        ``apply`` validates its payload's header before mutating anything,
        so a rejected generation leaves the simulator pristine. Returns
        the event position execution will resume from, or None when no
        generation survived — the caller then runs from scratch, so a
        corrupt checkpoint can degrade a resume but never fail the task.
        """
        for path in reversed(self._generations()):
            try:
                state, _verified = unwrap_result(path.read_text())
                apply(state)
                position = int(state["loop"]["position"])
            except (OSError, ValueError, KeyError, TypeError):
                self.fallbacks += 1
                quarantine(path, self.quarantine_dir)
                continue
            return position
        return None

    # -- completion --------------------------------------------------------------

    def clear(self) -> int:
        """Delete every remaining generation once the task has completed
        and its result landed — these checkpoints were consumed, not
        corrupt, so deletion (not quarantine) is correct. Returns the
        number removed."""
        removed = 0
        for path in self._generations():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
