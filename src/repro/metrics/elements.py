"""Element metrics (paper section 5.2).

"Lines of code, number of declarations, statements, and subprograms,
average size of subprograms, logical SLOC, unit nesting level, and
construct nesting level."

All line-based metrics are computed over the canonical pretty-printed
source (see :mod:`repro.lang.printer`), annotation lines excluded, just as
the paper's counts exclude annotations ("1365 lines without annotations").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lang import ast
from ..lang.printer import print_package

__all__ = ["ElementMetrics", "element_metrics", "count_statements",
           "construct_nesting"]


@dataclass(frozen=True)
class ElementMetrics:
    lines_of_code: int          # non-blank, non-annotation source lines
    logical_sloc: int           # executable statements + declarations
    declarations: int
    statements: int
    subprograms: int
    average_subprogram_size: float  # statements per subprogram
    unit_nesting_level: int     # packages are not nestable in MiniAda: 1
    construct_nesting_level: int


def count_statements(stmts) -> int:
    total = 0
    for s in stmts:
        if isinstance(s, ast.Assert):
            continue  # annotation, not code
        total += 1
        if isinstance(s, ast.If):
            for _, body in s.branches:
                total += count_statements(body)
            total += count_statements(s.else_body)
        elif isinstance(s, (ast.For, ast.While)):
            total += count_statements(s.body)
    return total


def construct_nesting(stmts, depth: int = 0) -> int:
    deepest = depth
    for s in stmts:
        if isinstance(s, ast.If):
            for _, body in s.branches:
                deepest = max(deepest, construct_nesting(body, depth + 1))
            deepest = max(deepest, construct_nesting(s.else_body, depth + 1))
        elif isinstance(s, (ast.For, ast.While)):
            deepest = max(deepest, construct_nesting(s.body, depth + 1))
    return deepest


def element_metrics(pkg: ast.Package, *,
                    source: Optional[str] = None) -> ElementMetrics:
    """Element metrics of ``pkg``.  ``source`` is ``print_package(pkg)``
    when the caller already printed it (the planner fingerprints the same
    text); it is printed here otherwise."""
    text = print_package(pkg) if source is None else source
    loc = sum(1 for line in text.splitlines()
              if line.strip() and not line.strip().startswith("--#"))
    declarations = len(pkg.decls) + sum(len(sp.decls) + len(sp.params)
                                        for sp in pkg.subprograms)
    declarations -= sum(
        1 for d in pkg.decls
        if isinstance(d, (ast.ProofFunctionDecl, ast.ProofRuleDecl)))
    statements = sum(count_statements(sp.body) for sp in pkg.subprograms)
    subprograms = len(pkg.subprograms)
    nesting = max((construct_nesting(sp.body) for sp in pkg.subprograms),
                  default=0)
    return ElementMetrics(
        lines_of_code=loc,
        logical_sloc=statements + declarations,
        declarations=declarations,
        statements=statements,
        subprograms=subprograms,
        average_subprogram_size=(statements / subprograms
                                 if subprograms else 0.0),
        unit_nesting_level=1,
        construct_nesting_level=nesting,
    )
