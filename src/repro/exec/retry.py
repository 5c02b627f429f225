"""Retry policy for failing obligations: exponential backoff with
deterministic jitter.

A transiently failing obligation (a raising thunk, or one requeued after
a worker crash) is re-fired after a delay that grows by
:data:`BACKOFF_FACTOR` per attempt, saturating at ``max_delay``.  The
jitter share (up to :data:`JITTER` of the delay) that
de-synchronizes concurrent retry storms is *deterministic*: it is derived
from a SHA-256 over the obligation's identity token and the attempt
number, never from ``random`` or the wall clock, so the same obligation
produces the same delay schedule on every backend and host -- the
determinism guarantee the cross-backend differential gates rely on
(DESIGN.md §12).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Union

__all__ = ["RetryPolicy", "BACKOFF_FACTOR", "JITTER"]

#: Growth of the delay per further retry.
BACKOFF_FACTOR = 2.0
#: Largest fraction of the delay added as deterministic jitter.
JITTER = 0.1


def check_count(name: str, value, minimum: int) -> None:
    """``ValueError`` unless ``value`` is an int (not a bool) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class RetryPolicy:
    """How (and how patiently) a failing obligation is re-fired.

    ``retries``     re-runs granted after the first failing attempt.
    ``base_delay``  seconds slept before the first retry.
    ``max_delay``   hard cap on any single delay (backoff saturates here).

    The zero policy (``retries=0``) never sleeps and never re-fires --
    exactly the historical behaviour of ``retries=0``.  Plain ints coerce
    via :meth:`coerce`, so ``ExecConfig(retries=2)`` keeps working.
    """

    retries: int = 0
    base_delay: float = 0.05
    max_delay: float = 2.0

    def __post_init__(self):
        check_count("retries", self.retries, 0)
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be >= 0, "
                             f"got {self.base_delay!r}")
        if self.max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, "
                             f"got {self.max_delay!r}")

    @classmethod
    def coerce(cls, value: Union[int, "RetryPolicy"]) -> "RetryPolicy":
        """``RetryPolicy`` passes through; a non-negative int becomes a
        policy with that many retries and the default backoff."""
        if isinstance(value, RetryPolicy):
            return value
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"retries must be an int or a RetryPolicy, "
                            f"got {type(value).__name__}")
        return cls(retries=value)

    def delay(self, attempt: int, token: str = "") -> float:
        """Seconds to sleep before re-firing after ``attempt`` failed
        attempts (``attempt >= 1``).  Pure function of
        ``(policy, attempt, token)`` -- the determinism guarantee."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt!r}")
        if self.base_delay == 0.0:
            return 0.0
        raw = min(self.max_delay,
                  self.base_delay * BACKOFF_FACTOR ** (attempt - 1))
        digest = hashlib.sha256(f"{token}\x1f{attempt}".encode()).hexdigest()
        fraction = int(digest[:8], 16) / 0xFFFFFFFF
        return min(self.max_delay, raw * (1.0 + JITTER * fraction))

    def to_json(self) -> dict:
        return dataclasses.asdict(self)
