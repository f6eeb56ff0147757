"""Full-jitter retry backoff for the runner's serial retry ladder."""

from __future__ import annotations

import hashlib


def jittered_backoff(base: float, attempt: int, token: str,
                     cap: float = 30.0) -> float:
    """Full-jitter exponential backoff: a delay drawn uniformly from
    ``[0, min(base * 2**(attempt-2), cap))``.

    Simultaneous retries (grid tasks re-armed after a pool break) must
    not thundering-herd the filesystem cache, so the classic
    deterministic doubling becomes the *ceiling* and the actual delay is
    a uniform draw under it — AWS-style "full jitter". The draw is a pure
    function of ``(token, attempt)`` (no process RNG, no wall clock), so
    a replayed campaign schedules its retries identically.

    ``attempt`` follows the runner's attempt numbering: the first retry
    is attempt 2 and gets a ceiling of ``base``; each further attempt
    doubles it up to ``cap``. A non-positive ``base`` disables backoff.
    """
    if base <= 0.0:
        return 0.0
    ceiling = min(base * 2 ** max(0, attempt - 2), cap)
    digest = hashlib.sha256(f"backoff|{token}|{attempt}".encode()).digest()
    fraction = int.from_bytes(digest[:8], "big") / 2 ** 64
    return ceiling * fraction
