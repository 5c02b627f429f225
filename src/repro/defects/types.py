"""Defect model for the seeded-defect experiment (paper section 7).

A defect is a small change to the implementation in one of the paper's
five categories: (a) a numeric value, (b) an array index, (c) an operator,
(d) a variable or table reference, (e) a statement or function call.

Each defect carries the textual mutation for the artifact(s) it lands in:

``optimized_patch``   mutation of the *optimized* source -- the defects the
                      refactoring stage can catch (a broken repetition
                      pattern makes re-rolling inapplicable; a corrupted
                      table entry fails the reverse-table-lookup proof);
``refactored_patch``  mutation of the refactored source (defects the
                      refactoring preserves);
``annotation_patch``  the matching mutation of the annotation formulas,
                      applied only in setup 1 ("the annotations
                      corresponded to the functional behavior of the
                      code").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["DEFECT_KINDS", "Defect"]

DEFECT_KINDS = ("numeric", "index", "operator", "reference", "statement")


@dataclass(frozen=True)
class Defect:
    name: str
    kind: str
    description: str
    #: (old, new) pairs applied to the optimized source, or () when the
    #: defect site is preserved verbatim by the refactoring.
    optimized_patch: Tuple[Tuple[str, str], ...] = ()
    #: (old, new) pairs applied to the refactored source.
    refactored_patch: Tuple[Tuple[str, str], ...] = ()
    #: (old, new) pairs applied to annotation formulas in setup 1.
    annotation_patch: Tuple[Tuple[str, str], ...] = ()
    #: subprograms whose proofs the defect can influence (implementation
    #: proof is run on these).
    subprograms: Tuple[str, ...] = ()
    benign: bool = False

    def __post_init__(self):
        assert self.kind in DEFECT_KINDS, self.kind
