"""MiniPVS: the functional specification language (PVS substitute).

Theories hold type definitions, constant tables, and pure functions; the
type checker generates TCCs and the evaluator makes specifications
executable (proof by evaluation).
"""

from . import ast
from .eval import SpecEvalError, SpecEvaluator
from .parser import SpecParseError, parse_theory
from .printer import print_spec_expr, print_theory, spec_line_count
from .typecheck import (
    SpecCheck, SpecGround, SpecTypeError, TCC, TCCReport, check_theory,
    discharge_tccs,
)

__all__ = [
    "ast", "parse_theory", "SpecParseError",
    "print_theory", "print_spec_expr", "spec_line_count",
    "SpecEvaluator", "SpecEvalError",
    "check_theory", "discharge_tccs",
    "SpecCheck", "SpecGround", "SpecTypeError", "TCC", "TCCReport",
]
