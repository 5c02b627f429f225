"""How strongly one proof step is known: one record, one ladder.

Every step of the verification argument -- a transformation's
preservation theorem, an implication lemma, a planner edge -- is decided
by walking a ladder of *rungs*, strongest first (the rung table is in
DESIGN.md §23).  A rung returns an :class:`Evidence` when it decides and
``None`` when it gives up; :func:`ladder` returns the first decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

__all__ = ["Evidence", "LEVELS", "EXHAUSTIVE_LIMIT", "ladder", "weakest"]

#: Evidence levels, strongest first.  Every level but ``sampled`` is a
#: proof: random inputs show a step, they do not prove it.
LEVELS = ("table", "symbolic", "exhaustive", "sampled")

#: The largest input domain an exhaustive rung enumerates.
EXHAUSTIVE_LIMIT = 1 << 16


@dataclass(frozen=True)
class Evidence:
    """One decided step: its level, whether it holds, and why."""

    level: str
    holds: bool
    detail: str = ""
    #: The refuting input, when the rung has one; not part of the JSON
    #: form (interpreter states are not serialized).
    counterexample: Any = None

    def __post_init__(self):
        if self.level not in LEVELS:
            raise ValueError(f"unknown evidence level {self.level!r}")

    @property
    def is_proof(self) -> bool:
        return self.level != "sampled"

    def to_json(self) -> dict:
        return {"level": self.level, "holds": self.holds,
                "detail": self.detail}

    @classmethod
    def from_json(cls, value) -> "Evidence":
        """The inverse of :meth:`to_json`; a record of another shape
        raises, which the result cache reads as a miss."""
        if not (isinstance(value["holds"], bool)
                and isinstance(value["detail"], str)):
            raise TypeError(f"not an evidence record: {value!r}")
        return cls(value["level"], value["holds"], value["detail"])


def ladder(rungs: Iterable[Callable[[], Optional[Evidence]]]
           ) -> Optional[Evidence]:
    """The first decision of ``rungs``, tried in order; None when every
    rung gives up."""
    for rung in rungs:
        evidence = rung()
        if evidence is not None:
            return evidence
    return None


def weakest(evidence: Iterable[Evidence]) -> Optional[Evidence]:
    """The first of ``evidence`` at its weakest level; None when empty."""
    return max(evidence, key=lambda e: LEVELS.index(e.level), default=None)
