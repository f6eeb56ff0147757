"""Resumable grid manifests.

A campaign (one ``run_many`` batch — a figure grid, a parameter sweep, a
``repro run`` invocation) writes a manifest into
``<cache>/manifests/grid-<id>.json`` recording every task's app, full
configuration, status (``pending`` / ``done`` / ``failed``) and failure
reason. It is written twice per batch, atomically (write-to-temp +
rename) with an embedded content digest: at batch start, with the
cached tasks ``done`` and the rest ``pending``, and at batch end, with
every task ``done`` or ``failed``. A batch served wholly from the cache
writes none, unless it finds its grid's unfinished manifest
(:meth:`GridManifest.find`), which it completes. Every result is a pure
function of its key, so the digest-checked result cache is the record
of which tasks finished; an interrupted campaign keeps its start manifest, and
``repro run --resume`` re-plans the grid from it with the finished
tasks served as cache hits.

The grid identity hashes the (app, config digest) pairs plus scale and
seed — *not* the result-schema digest — so a manifest survives result
layout changes. Configurations round-trip through
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
    """On-disk record of one campaign's tasks, written atomically when
    its batch starts and when it ends."""

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

    # -- the batch-start write -------------------------------------------------

    @classmethod
    def start(cls, directory: Path | str, tasks: list[dict], *,
              scale: float, seed: int, label: str | None = None,
              done=(), on_corrupt=None) -> "GridManifest":
        """Write the manifest of a batch that is starting: the ``done``
        keys (cache hits) as ``done``, every other task ``pending``.

        ``tasks`` entries carry ``key``, ``app``, ``config_name``,
        ``config_digest`` and ``config`` (a :func:`config_to_dict` dict).
        An earlier manifest of the same grid is replaced, not merged: the
        result cache records which of its tasks finished. One that fails
        its digest check is first passed to ``on_corrupt`` (default:
        quarantined under ``quarantine/`` beside ``directory``). This
        write raises on failure, so a read-only cache gets no manifest.
        """
        directory = Path(directory)
        gid, path = cls._locate(directory, tasks, scale, seed)
        if path.exists():
            try:
                cls.load(path)
            except (IntegrityError, ValueError, KeyError, OSError):
                if on_corrupt is not None:
                    on_corrupt(path)
                else:
                    quarantine(path, directory.parent / "quarantine")
        done = set(done)
        records = {
            task["key"]: {
                "index": index,
                "app": task["app"],
                "config_name": task["config_name"],
                "config_digest": task["config_digest"],
                "config": task["config"],
                "status": "done" if task["key"] in done else "pending",
                "error": None,
            }
            for index, task in enumerate(tasks)}
        manifest = cls(path, {
            "version": MANIFEST_VERSION, "grid_id": gid, "label": label,
            "scale": float(scale), "seed": int(seed),
            "created": round(time.time(), 3), "completed": None,
            "tasks": records,
        })
        manifest._write()
        return manifest

    @classmethod
    def _locate(cls, directory: Path, tasks: list[dict], scale: float,
                seed: int) -> tuple[str, Path]:
        """The grid id of ``tasks`` and its manifest path."""
        gid = cls.grid_identity(
            [(t["app"], t["config_digest"]) for t in tasks], scale, seed)
        return gid, directory / f"grid-{gid}.json"

    @classmethod
    def find(cls, directory: Path | str, tasks: list[dict], *,
             scale: float, seed: int) -> "GridManifest | None":
        """The existing manifest of the grid ``tasks`` (entries as for
        :meth:`start`), or None when there is none or it fails its
        digest check (the grid's next :meth:`start` quarantines it)."""
        _, path = cls._locate(Path(directory), tasks, scale, seed)
        try:
            return cls.load(path)
        except (IntegrityError, ValueError, KeyError, OSError):
            return None

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

    # -- the batch-end write ---------------------------------------------------

    def finish(self, failures: dict[str, str]) -> None:
        """Write the manifest of a batch that has ended: the ``failures``
        tasks (key -> reason) ``failed``, every other task ``done``, and
        the completion stamp when nothing failed.

        A write that fails (a volume that filled mid-campaign) leaves the
        start manifest in place: it marks done only what was cached when
        the batch began, so resuming from it may re-run a task, never
        skip one."""
        for key, task in self.tasks.items():
            task["error"] = failures.get(key)
            task["status"] = "failed" if key in failures else "done"
        if not failures:
            self._data["completed"] = round(time.time(), 3)
        with contextlib.suppress(OSError):
            self._write()

    def _write(self) -> None:
        """Atomically rewrite the file (temp + rename) with a fresh
        content digest."""
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
