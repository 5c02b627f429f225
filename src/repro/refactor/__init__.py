"""Verification refactoring: the transformation engine and library
(Stratego/XT substitute; paper sections 5.1-5.2).
"""

from .conditionals import MoveIntoConditional, MoveOutOfConditional
from .datastruct import AdjustDataStructures, UserSpecifiedTransformation
from .engine import (
    Application, RefactoringEngine, Transformation, TransformationError,
    get_block, replace_block,
)
from .inline import ExtractFunction, ExtractProcedureClone, parse_subprogram
from .library import TRANSFORMATION_LIBRARY
from .loopforms import MergeLoopNest, ShiftLoopBounds, SplitLoopNest
from .reroll import RerollLoop
from .separate import SeparateLoop
from .split import SplitProcedure
from .storage import (
    IntroduceIntermediateVariable, RemoveDeadSubprogram,
    RemoveIntermediateVariable, Rename,
)
from .tables import ReverseTableLookup
from .unify import AntiUnifyError, anti_unify_groups

__all__ = [
    "Transformation", "TransformationError", "Application",
    "RefactoringEngine", "get_block", "replace_block",
    "RerollLoop", "MoveIntoConditional", "MoveOutOfConditional",
    "SplitProcedure", "ShiftLoopBounds", "SplitLoopNest", "MergeLoopNest",
    "ExtractFunction", "ExtractProcedureClone", "parse_subprogram",
    "SeparateLoop", "RemoveIntermediateVariable",
    "IntroduceIntermediateVariable", "RemoveDeadSubprogram", "Rename",
    "ReverseTableLookup",
    "AdjustDataStructures", "UserSpecifiedTransformation",
    "TRANSFORMATION_LIBRARY",
    "AntiUnifyError", "anti_unify_groups",
]
