"""Semantics-preservation theorems and their proof.

For each transformation application the refactoring engine discharges the
theorem the paper states in section 5.1::

    init_state(P) = init_state(P') => final_state(P) = final_state(P')

on the evidence ladder of :mod:`repro.evidence`; DESIGN.md §23 tables its
rungs, their limits and which callers run them.

The paper permits postponing the proof: "the semantics-preserving proof
can be postponed until the transformation has been shown to be useful"
(section 5.2) -- sampled evidence is our mechanized version of a
postponed proof.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from ..evidence import Evidence, ladder
from ..lang import TypedPackage
from ..logic import Rewriter, default_rules
from .differential import differential_check, exhaustive_check
from .symbolic import SymbolicExecutor, UnsupportedProgram

__all__ = ["CHECKS", "preservation", "prove_equivalence"]

#: The rungs each ``check`` mode walks, strongest first.
CHECKS = {"full": ("symbolic", "exhaustive", "sampled"),
          "differential": ("sampled",),
          "none": ()}


def _symbolic(left_typed, left_name, right_typed, right_name
              ) -> Optional[Evidence]:
    try:
        left_summary = SymbolicExecutor(left_typed).execute(left_name)
        right_summary = SymbolicExecutor(right_typed).execute(right_name)
    except UnsupportedProgram:
        return None
    if set(left_summary.outputs) != set(right_summary.outputs):
        return Evidence("symbolic", False, "observable variables differ")
    rewriter = Rewriter(default_rules())
    for key in left_summary.outputs:
        a = rewriter.normalize(left_summary.outputs[key])
        b = rewriter.normalize(right_summary.outputs[key])
        if a is not b:
            # Not syntactically equal after normalization: inconclusive
            # (terms may still be semantically equal), fall through to the
            # evaluation-based rungs.
            return None
    return Evidence("symbolic", True,
                    "symbolic summaries normalize identically")


def preservation(left_typed: TypedPackage, left_name: str,
                 right_typed: TypedPackage, right_name: str,
                 sampled: Callable[[], Evidence], check: str = "full",
                 sampler=None) -> Optional[Evidence]:
    """Walk ``check``'s rungs (:data:`CHECKS`) for one theorem; None when
    ``check`` has none.  ``sampled`` is the caller's sampled rung.  With
    a custom ``sampler`` the theorem is relative to the sampled input
    domain (a documented precondition), so only ``sampled`` runs."""
    args = (left_typed, left_name, right_typed, right_name)
    rungs = {"symbolic": partial(_symbolic, *args),
             "exhaustive": partial(exhaustive_check, *args),
             "sampled": sampled}
    return ladder(rungs[level] for level in CHECKS[check]
                  if sampler is None or level == "sampled")


def prove_equivalence(left_typed: TypedPackage, left_name: str,
                      right_typed: TypedPackage, right_name: str = None,
                      trials: int = 64, seed: int = 20090701,
                      sampler=None) -> Evidence:
    """Discharge the preservation theorem at the strongest feasible
    level, sampling (unscheduled) as the last rung."""
    args = (left_typed, left_name, right_typed, right_name or left_name)
    return preservation(*args, partial(differential_check, *args,
                                       trials=trials, seed=seed,
                                       sampler=sampler),
                        sampler=sampler)
