"""Artifact integrity: content digests, result envelopes, quarantine.

The harness trusts nothing it reads back from disk. Result-cache entries
are wrapped in a digest envelope (:func:`wrap_result` /
:func:`unwrap_result`); ``.espt`` traces carry a CRC32 footer (see
:mod:`repro.isa.tracefile`); grid manifests embed a digest of their own
body. When verification fails the artifact is *never* silently deleted —
:func:`quarantine` moves it aside so a corruption can be inspected after
the fact, and the caller regenerates a fresh copy.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from pathlib import Path

#: hex characters kept from the SHA-256 of a payload
DIGEST_CHARS = 16


class IntegrityError(ValueError):
    """A stored artifact failed its content-digest verification."""


def canonical_json(obj) -> str:
    """The canonical serialisation digests are computed over (stable
    across dump/load round trips of plain JSON types)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def payload_digest(payload: str | bytes) -> str:
    """Truncated SHA-256 hex digest of ``payload``."""
    if isinstance(payload, str):
        payload = payload.encode()
    return hashlib.sha256(payload).hexdigest()[:DIGEST_CHARS]


def wrap_result(result: dict) -> str:
    """Serialise a result dict into its digest envelope:
    ``{"digest": <sha256 of canonical body>, "result": {...}}``."""
    body = canonical_json(result)
    return json.dumps({"digest": payload_digest(body), "result": result},
                      sort_keys=True, separators=(",", ":"))


def unwrap_result(text: str) -> dict:
    """Parse and verify a result envelope written by :func:`wrap_result`,
    returning the result dict.

    Raises :class:`IntegrityError` on a digest mismatch or a missing
    envelope — every current cache key postdates the envelope, so a bare
    object under one is damage or a foreign write — and
    :class:`json.JSONDecodeError` on torn/garbled text.
    """
    parsed = json.loads(text)
    if not isinstance(parsed, dict):
        raise IntegrityError("result envelope is not a JSON object")
    if "digest" not in parsed or "result" not in parsed:
        raise IntegrityError("result entry has no digest envelope")
    result = parsed["result"]
    if not isinstance(result, dict):
        raise IntegrityError("result payload is not a JSON object")
    actual = payload_digest(canonical_json(result))
    if actual != parsed["digest"]:
        raise IntegrityError(
            f"result digest mismatch: stored {parsed['digest']!r}, "
            f"computed {actual!r}")
    return result


#: per-process uniquifier for quarantine filenames
_quarantine_counter = itertools.count()


def quarantine(path: Path | str, quarantine_dir: Path | str) -> Path | None:
    """Move a corrupt artifact into ``quarantine_dir`` (never delete it).

    The destination keeps the original filename plus a unique
    ``.<pid>-<n>.quarantined`` suffix so repeated corruption of the same
    path never collides. Returns the destination, or ``None`` when the
    move failed (read-only cache; the caller's regeneration overwrites
    the corrupt file in place instead).
    """
    path = Path(path)
    try:
        quarantine_dir = Path(quarantine_dir)
        quarantine_dir.mkdir(parents=True, exist_ok=True)
        dest = quarantine_dir / (
            f"{path.name}.{os.getpid()}-{next(_quarantine_counter)}"
            ".quarantined")
        os.replace(path, dest)
        return dest
    except OSError:
        return None
