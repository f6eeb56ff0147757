"""Resumable grid manifests.

A campaign (one ``run_many`` batch — a figure grid, a parameter sweep, a
``repro run`` invocation) writes a manifest into
``<cache>/manifests/grid-<id>.json`` recording every task's app, full
configuration, status (``pending`` / ``done`` / ``failed``), attempt
count and last error. Each update rewrites the file atomically
(write-to-temp + rename) with an embedded content digest, so an
interrupted campaign leaves a consistent manifest behind and
``repro run --resume`` can pick the work back up from exactly where it
stopped instead of re-planning the grid.

The grid identity hashes the (app, config digest) pairs plus scale and
seed — *not* the result-schema digest — so a manifest survives result
layout changes (its task statuses reset along with the invalidated
cache entries). Configurations round-trip through
:func:`config_to_dict` / :func:`config_from_dict`, preserving
``SimConfig.cache_key`` exactly, so resumed tasks hit the same cache
entries as the original run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path

from repro.obs.metrics import get_registry
from repro.resilience.integrity import (IntegrityError, canonical_json,
                                        payload_digest, quarantine)

MANIFEST_VERSION = 1


# -- SimConfig round trip ------------------------------------------------------

def config_to_dict(config) -> dict:
    """JSON-serialisable form of a :class:`~repro.sim.config.SimConfig`."""
    data = dataclasses.asdict(config)
    data["esp"]["bp_mode"] = config.esp.bp_mode.value
    return data


def config_from_dict(data: dict):
    """Rebuild a :class:`~repro.sim.config.SimConfig` from
    :func:`config_to_dict` output, preserving ``cache_key()`` exactly
    (enums and tuple-typed fields are restored to their real types)."""
    from repro.sim.config import (BranchPredictorConfig, CacheConfig,
                                  CoreConfig, EspBpMode, EspConfig,
                                  MemoryConfig, PerfectConfig,
                                  PrefetchConfig, RunaheadConfig, SimConfig)

    esp = dict(data["esp"])
    esp["bp_mode"] = EspBpMode(esp["bp_mode"])
    for name in ("i_cachelet_bytes", "d_cachelet_bytes", "i_list_bytes",
                 "d_list_bytes", "b_list_dir_bytes", "b_list_tgt_bytes"):
        esp[name] = tuple(esp[name])
    memory = data["memory"]
    return SimConfig(
        name=data["name"],
        core=CoreConfig(**data["core"]),
        memory=MemoryConfig(
            l1i=CacheConfig(**memory["l1i"]),
            l1d=CacheConfig(**memory["l1d"]),
            l2=CacheConfig(**memory["l2"]),
            dram_latency=memory["dram_latency"],
            dram_line_transfer_cycles=memory["dram_line_transfer_cycles"]),
        prefetch=PrefetchConfig(**data["prefetch"]),
        branch=BranchPredictorConfig(**data["branch"]),
        esp=EspConfig(**esp),
        runahead=RunaheadConfig(**data["runahead"]),
        perfect=PerfectConfig(**data["perfect"]),
    )


# -- the manifest --------------------------------------------------------------

class GridManifest:
    """On-disk record of one campaign's tasks, atomically updated."""

    def __init__(self, path: Path | str, data: dict) -> None:
        self.path = Path(path)
        self._data = data

    # -- properties ------------------------------------------------------------

    @property
    def grid_id(self) -> str:
        return self._data["grid_id"]

    @property
    def label(self) -> str | None:
        return self._data.get("label")

    @property
    def scale(self) -> float:
        return self._data["scale"]

    @property
    def seed(self) -> int:
        return self._data["seed"]

    @property
    def tasks(self) -> dict[str, dict]:
        """Task records keyed by result-cache key."""
        return self._data["tasks"]

    def tasks_in_order(self) -> list[dict]:
        """Task records in original grid order (each carries its key)."""
        ordered = sorted(self.tasks.items(), key=lambda kv: kv[1]["index"])
        return [{"key": key, **task} for key, task in ordered]

    def counts(self) -> dict[str, int]:
        """``{status: count}`` over every task."""
        out: dict[str, int] = {}
        for task in self.tasks.values():
            out[task["status"]] = out.get(task["status"], 0) + 1
        return out

    @property
    def is_complete(self) -> bool:
        return all(task["status"] == "done"
                   for task in self.tasks.values())

    @property
    def completed_at(self) -> float | None:
        return self._data.get("completed")

    # -- identity --------------------------------------------------------------

    @staticmethod
    def grid_identity(entries, scale, seed) -> str:
        """Stable id of a grid: sorted (app, config digest) pairs plus
        scale and seed (schema-independent, so manifests survive result
        layout bumps)."""
        body = "\n".join(sorted(f"{app}|{digest}"
                                for app, digest in entries))
        body += f"\n|s{scale!r}|r{seed}"
        return hashlib.sha256(body.encode()).hexdigest()[:12]

    # -- construction ----------------------------------------------------------

    @classmethod
    def create_or_load(cls, directory: Path | str, tasks: list[dict], *,
                       scale: float, seed: int,
                       label: str | None = None) -> "GridManifest":
        """The manifest for this task set: loads and merges an existing
        one (resume), recreates a corrupt one (after quarantining it),
        creates a fresh one otherwise.

        ``tasks`` entries carry ``key``, ``app``, ``config_name``,
        ``config_digest`` and ``config`` (a :func:`config_to_dict` dict).
        Statuses of matching keys survive the merge; keys that no longer
        match (schema bump invalidated the cache) are replaced as
        pending.
        """
        directory = Path(directory)
        gid = cls.grid_identity(
            [(t["app"], t["config_digest"]) for t in tasks], scale, seed)
        path = directory / f"grid-{gid}.json"
        previous: dict[str, dict] = {}
        if path.exists():
            try:
                previous = cls.load(path).tasks
            except (IntegrityError, ValueError, KeyError, OSError) as exc:
                registry = get_registry()
                registry.inc("cache.corrupt")
                registry.inc("cache.manifest.corrupt")
                quarantine(path, directory.parent / "quarantine")
                del exc
        now = round(time.time(), 3)
        records: dict[str, dict] = {}
        for index, task in enumerate(tasks):
            key = task["key"]
            old = previous.get(key)
            records[key] = {
                "index": index,
                "app": task["app"],
                "config_name": task["config_name"],
                "config_digest": task["config_digest"],
                "config": task["config"],
                "status": old["status"] if old else "pending",
                "attempts": old["attempts"] if old else 0,
                "error": old.get("error") if old else None,
                "updated": now,
            }
        manifest = cls(path, {
            "version": MANIFEST_VERSION, "grid_id": gid, "label": label,
            "scale": float(scale), "seed": int(seed), "created": now,
            "completed": None, "tasks": records,
        })
        manifest._write()
        return manifest

    @classmethod
    def load(cls, path: Path | str) -> "GridManifest":
        """Load and digest-verify one manifest file."""
        path = Path(path)
        parsed = json.loads(path.read_text())
        if not isinstance(parsed, dict) or "tasks" not in parsed:
            raise IntegrityError("manifest is not a task object")
        stored = parsed.pop("digest", None)
        actual = payload_digest(canonical_json(parsed))
        if stored != actual:
            raise IntegrityError(
                f"manifest digest mismatch: stored {stored!r}, "
                f"computed {actual!r}")
        return cls(path, parsed)

    @classmethod
    def latest_incomplete(cls, directory: Path | str
                          ) -> "GridManifest | None":
        """The most recently touched manifest with unfinished tasks
        (corrupt manifest files are skipped)."""
        directory = Path(directory)
        if not directory.is_dir():
            return None
        paths = sorted(directory.glob("grid-*.json"),
                       key=lambda p: p.stat().st_mtime, reverse=True)
        for path in paths:
            try:
                manifest = cls.load(path)
            except (IntegrityError, ValueError, KeyError, OSError):
                continue
            if not manifest.is_complete:
                return manifest
        return None

    # -- updates ---------------------------------------------------------------

    def save(self) -> None:
        """Atomically rewrite the manifest with a fresh content digest.

        A rewrite that fails (a volume that filled mid-campaign) leaves
        the last complete manifest in place: a task it marks done is
        done, so resuming from it may re-run a task, never skip one.
        Only the first write, in :meth:`create_or_load`, raises."""
        with contextlib.suppress(OSError):
            self._write()

    def _write(self) -> None:
        out = dict(self._data)
        out["digest"] = payload_digest(canonical_json(self._data))
        tmp = self.path.parent / (self.path.name + f".{os.getpid()}.tmp")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(out, sort_keys=True))
            os.replace(tmp, self.path)
        except OSError:
            with contextlib.suppress(OSError):
                tmp.unlink()
            raise

    def mark(self, key: str, status: str, error: str | None = None,
             save: bool = True) -> None:
        """Set one task's status (unknown keys are ignored)."""
        task = self.tasks.get(key)
        if task is None:
            return
        task["status"] = status
        task["error"] = error
        task["updated"] = round(time.time(), 3)
        if save:
            self.save()

    def mark_many(self, keys, status: str) -> None:
        """Batch :meth:`mark` with a single atomic rewrite."""
        for key in keys:
            self.mark(key, status, save=False)
        self.save()

    def record_attempts(self, keys) -> None:
        """Bump the attempt counter of every ``keys`` task (one rewrite)."""
        now = round(time.time(), 3)
        for key in keys:
            task = self.tasks.get(key)
            if task is not None:
                task["attempts"] += 1
                task["updated"] = now
        self.save()

    def reset_failed(self) -> int:
        """Re-arm failed tasks as pending (fresh attempt budget) for a
        resume; returns how many were reset."""
        reset = 0
        for task in self.tasks.values():
            if task["status"] == "failed":
                task["status"] = "pending"
                task["attempts"] = 0
                task["error"] = None
                reset += 1
        if reset:
            self.save()
        return reset

    def finish(self) -> None:
        """Stamp the completion time once every task is done."""
        if self.is_complete and self._data.get("completed") is None:
            self._data["completed"] = round(time.time(), 3)
            self.save()
