"""Configurable retry policy with deterministic seeded backoff jitter.

Replaces the hard-coded "retry once on crash" in :class:`WorkerPool`.
The jitter is a pure function of ``(seed, task index, attempt)`` — it is
derived from a SHA-256 digest, never Python's ``hash()`` (whose string
salting varies per process under ``PYTHONHASHSEED``) — so a study that
retries is still byte-for-byte reproducible: the same seed produces the
same backoff schedule on every run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


def _unit_interval(*parts: object) -> float:
    """Deterministic uniform draw in [0, 1) from the hashed parts."""
    digest = hashlib.sha256(
        ":".join(str(p) for p in parts).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


@dataclass(frozen=True)
class RetryPolicy:
    """How many attempts a task gets and how long to wait between them.

    ``max_attempts`` counts *total* attempts (1 = never retry; the
    default, 2, retries once). Backoff before retry ``k`` (1-based) is
    ``backoff_s * backoff_factor**(k-1)``, capped at ``max_backoff_s``,
    then scaled by ``1 + jitter * u`` where ``u`` is the deterministic
    unit draw for ``(seed, index, k)``.

    >>> p = RetryPolicy(max_attempts=3, backoff_s=0.1, jitter=0.5, seed=7)
    >>> p.delay_s(0, 1) == p.delay_s(0, 1)   # deterministic
    True
    >>> RetryPolicy(max_attempts=2).delay_s(0, 1)
    0.0
    """

    max_attempts: int = 2
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    max_backoff_s: float = 30.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.max_backoff_s < 0:
            raise ValueError(
                f"max_backoff_s must be >= 0, got {self.max_backoff_s}"
            )
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    def delay_s(self, index: int, attempt: int) -> float:
        """Seconds to wait before retry ``attempt`` (1-based) of task
        ``index``. Deterministic for a fixed seed."""
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        if self.backoff_s <= 0:
            return 0.0
        delay = self.backoff_s * self.backoff_factor ** (attempt - 1)
        delay = min(delay, self.max_backoff_s)
        if self.jitter > 0:
            delay *= 1.0 + self.jitter * _unit_interval(
                self.seed, index, attempt
            )
        return delay
