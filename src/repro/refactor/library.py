"""The transformation library (the paper's figure-1 "Transformation
Library").

The registry maps category names (paper section 5.1 plus the two
AES-specific categories of 6.2.1) to transformation classes; the process
loop and the harness use it to report per-category application counts the
way the paper does ("50 refactoring transformations in eight categories").
"""

from __future__ import annotations

from typing import Dict, List, Type

from .conditionals import MoveIntoConditional, MoveOutOfConditional
from .datastruct import AdjustDataStructures, UserSpecifiedTransformation
from .engine import Transformation
from .inline import ExtractFunction, ExtractProcedureClone
from .loopforms import MergeLoopNest, ShiftLoopBounds, SplitLoopNest
from .reroll import RerollLoop
from .separate import SeparateLoop
from .split import SplitProcedure
from .storage import (
    IntroduceIntermediateVariable, RemoveDeadSubprogram,
    RemoveIntermediateVariable, Rename,
)
from .tables import ReverseTableLookup

__all__ = ["TRANSFORMATION_LIBRARY"]

#: category -> transformation classes, mirroring paper section 5.1 / 6.2.1.
TRANSFORMATION_LIBRARY: Dict[str, List[Type[Transformation]]] = {
    "rerolling loops": [RerollLoop],
    "moving statements into or out of conditionals": [
        MoveIntoConditional, MoveOutOfConditional],
    "splitting procedures": [SplitProcedure],
    "adjusting loop forms": [ShiftLoopBounds, SplitLoopNest, MergeLoopNest],
    "reversing inlined functions or cloned code": [
        ExtractFunction, ExtractProcedureClone],
    "separating loops": [SeparateLoop],
    "modifying redundant or intermediate storage": [
        RemoveIntermediateVariable, IntroduceIntermediateVariable,
        RemoveDeadSubprogram, Rename],
    "adjusting data structures": [AdjustDataStructures],
    "reversing table lookups": [ReverseTableLookup],
    "user-specified": [UserSpecifiedTransformation],
}
