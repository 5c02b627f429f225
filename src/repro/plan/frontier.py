"""The planner's search frontier: deterministic best-first with a beam.

States are ordered by score, descending; ties break on depth,
*descending*, then on a *seeded canonical tie token* --
``make_key(seed, fingerprint)`` -- so the order is a pure function of
(program content, seed).  No wall-clock times, no ``id()`` values, no
insertion-order dependence: two runs of the same search, on any
scheduler backend, pop states in exactly the same order.

Deeper-on-ties matters on score plateaus.  Setup moves (a rename that
makes a catalog entry applicable) are often score-*neutral*: their
payoff appears one or more steps later.  Breaking exact ties by hash
alone makes survival of such a multi-step line a lottery against the
sea of equally-scored sibling permutations, and the beam routinely
prunes the only progressing chain.  Preferring the deeper state commits
the search along a line until its score genuinely changes, while the
score still dominates ordering and the beam still protects against
dips.

The beam bounds memory: after each expansion the frontier keeps only the
``beam_width`` best open states.  Beam pruning is what makes the search
*informed* rather than exhaustive -- the paper's observation is that the
metrics gradient (match ratio up, VC size down) reliably points along
the human's chain, so a narrow beam suffices; the score dip at the word-
packing reversal (match briefly falls while the representation changes)
is why the beam must hold more than one state.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from ..lang import ast
from .scoring import StateEvaluation

__all__ = ["PlanStep", "PlanState", "Frontier"]


@dataclass(frozen=True)
class PlanStep:
    """One committed edge of a plan (JSON-able)."""

    token: str          # canonical transformation identity
    description: str
    category: str
    origin: str         # 'library' | 'catalog' | 'align'
    entry: Optional[str] = None
    score: float = 0.0
    match_percent: float = 0.0
    fingerprint: str = ""
    #: The weakest evidence level of the edge's theorems, stamped when
    #: the edge is accepted.
    level: str = ""

    def to_json(self) -> dict:
        import dataclasses
        return dataclasses.asdict(self)


@dataclass
class PlanState:
    """One node of the search: a program version plus how we got there.

    The child *package* is not materialized until the state is popped and
    validated (the engine's theorem replay produces it); until then the
    state carries its parent's package and the transformation, which is
    all validation needs."""

    fingerprint: str
    evaluation: StateEvaluation
    score: float
    tie: str                        # seeded canonical tie-break token
    depth: int
    chain: Tuple[PlanStep, ...]
    applied_entries: frozenset
    goal: bool = False
    #: Edge back to the parent; None for the root.
    parent_package: Optional[ast.Package] = None
    transformation: Optional[object] = None
    origin: str = "root"
    entry: Optional[str] = None
    #: Filled at pop time by theorem-checked replay.
    package: Optional[ast.Package] = None

    @property
    def order_key(self) -> Tuple[float, int, str]:
        return (-self.score, -self.depth, self.tie)


class Frontier:
    """Sorted open list with beam pruning and a visited set."""

    def __init__(self, beam_width: int):
        self.beam_width = beam_width
        self._states: List[PlanState] = []
        self._keys: List[Tuple[float, str]] = []
        self.visited: Set[str] = set()

    def __len__(self) -> int:
        return len(self._states)

    def push(self, state: PlanState) -> None:
        at = bisect.bisect_right(self._keys, state.order_key)
        self._keys.insert(at, state.order_key)
        self._states.insert(at, state)

    def pop(self) -> PlanState:
        self._keys.pop(0)
        return self._states.pop(0)

    def prune(self) -> int:
        """Apply the beam: drop everything past the ``beam_width`` best."""
        dropped = len(self._states) - self.beam_width
        if dropped > 0:
            del self._states[self.beam_width:]
            del self._keys[self.beam_width:]
        return max(0, dropped)
