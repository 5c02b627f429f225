"""MiniAda: the SPARK-Ada-subset substrate (lexer, parser, type checker,
interpreter, printer, annotations).

A MiniAda compilation unit is a single package with type/constant
declarations, SPARK-style ``--#`` annotations, and subprogram bodies.  See
DESIGN.md section 2 for why this substitutes for SPARK Ada in the
reproduction.
"""

from . import ast
from .annotations import (
    AnnotationCounts, count_annotations, with_true_postconditions,
)
from .errors import (
    LexError, MiniAdaError, ParseError, RuntimeFault, StepLimitExceeded,
    TypeError_,
)
from .interp import Interpreter
from .lexer import tokenize
from .parser import parse_expression, parse_package
from .printer import print_expr, print_package, print_stmt, print_subprogram
from .typecheck import SubprogramContext, TypedPackage, analyze
from .types import (
    ArrayType, BOOLEAN, BooleanType, INTEGER, IntegerType, ModularType,
    RangeType, Type, UNIV_INT, compatible, is_integerish,
)

__all__ = [
    "ast", "tokenize", "parse_package", "parse_expression", "analyze",
    "TypedPackage", "SubprogramContext", "Interpreter",
    "print_package", "print_subprogram", "print_stmt", "print_expr",
    "AnnotationCounts", "count_annotations", "with_true_postconditions",
    "MiniAdaError", "LexError", "ParseError", "TypeError_", "RuntimeFault",
    "StepLimitExceeded",
    "Type", "IntegerType", "BooleanType", "ModularType", "RangeType",
    "ArrayType", "INTEGER", "BOOLEAN", "UNIV_INT", "compatible",
    "is_integerish",
]
