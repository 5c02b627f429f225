"""Complexity metrics (paper section 5.2).

"McCabe cyclomatic complexity, essential complexity, statement complexity,
short-circuit complexity, and loop nesting level."

Notes on fidelity:

* *Essential complexity* measures unstructuredness (gotos, multi-exit
  loops).  MiniAda is fully structured apart from early ``return``, which
  we count as SPARK's metric tool does (each extra exit point adds one).
* *Statement complexity* follows the GNAT metric: average number of
  syntactic constructs per executable statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..lang import ast
from .elements import count_statements

__all__ = ["ComplexityMetrics", "SubprogramComplexity", "complexity_metrics",
           "mccabe"]


@dataclass(frozen=True)
class SubprogramComplexity:
    name: str
    mccabe: int
    essential: int
    statement_complexity: float
    short_circuit: int
    loop_nesting: int


@dataclass(frozen=True)
class ComplexityMetrics:
    per_subprogram: Dict[str, SubprogramComplexity]

    @property
    def average_mccabe(self) -> float:
        if not self.per_subprogram:
            return 0.0
        return sum(c.mccabe for c in self.per_subprogram.values()) \
            / len(self.per_subprogram)

    @property
    def max_mccabe(self) -> int:
        return max((c.mccabe for c in self.per_subprogram.values()),
                   default=0)

    @property
    def average_essential(self) -> float:
        if not self.per_subprogram:
            return 0.0
        return sum(c.essential for c in self.per_subprogram.values()) \
            / len(self.per_subprogram)

    @property
    def max_loop_nesting(self) -> int:
        return max((c.loop_nesting for c in self.per_subprogram.values()),
                   default=0)

    @property
    def average_statement_complexity(self) -> float:
        if not self.per_subprogram:
            return 0.0
        return sum(c.statement_complexity
                   for c in self.per_subprogram.values()) \
            / len(self.per_subprogram)

    @property
    def total_short_circuit(self) -> int:
        return sum(c.short_circuit for c in self.per_subprogram.values())


_SHORT_CIRCUIT_OPS = ("and_then", "or_else")


def _tally(sp: ast.Subprogram):
    """One walk over ``sp``: (decisions, returns, short-circuit operators,
    statement-complexity nodes).

    Decisions count in ``body`` only (McCabe's decisions are in code, not
    annotations); returns and short-circuit operators count over the
    whole subprogram; the node count covers ``body`` minus its top-level
    ``Assert`` roots (annotations, not code)."""
    decisions = returns = short_circuit = nodes = 0
    for stmt in sp.body:
        counted = not isinstance(stmt, ast.Assert)
        for n in ast.walk(stmt):
            nodes += counted
            if isinstance(n, ast.If):
                decisions += len(n.branches)
            elif isinstance(n, (ast.For, ast.While)):
                decisions += 1
            elif isinstance(n, ast.BinOp) and n.op in _SHORT_CIRCUIT_OPS:
                decisions += 1
                short_circuit += 1
            elif isinstance(n, ast.Return):
                returns += 1
    for part in (sp.params, sp.decls, sp.pre, sp.post):
        for root in part:
            for n in ast.walk(root):
                if isinstance(n, ast.BinOp) and n.op in _SHORT_CIRCUIT_OPS:
                    short_circuit += 1
                elif isinstance(n, ast.Return):
                    returns += 1
    return decisions, returns, short_circuit, nodes


def mccabe(sp: ast.Subprogram) -> int:
    """Cyclomatic complexity: decisions + 1."""
    return 1 + _tally(sp)[0]


def _loop_nesting(stmts, depth=0) -> int:
    deepest = depth
    for s in stmts:
        if isinstance(s, (ast.For, ast.While)):
            deepest = max(deepest, _loop_nesting(s.body, depth + 1))
        elif isinstance(s, ast.If):
            for _, body in s.branches:
                deepest = max(deepest, _loop_nesting(body, depth))
            deepest = max(deepest, _loop_nesting(s.else_body, depth))
    return deepest


def complexity_metrics(pkg: ast.Package) -> ComplexityMetrics:
    per = {}
    for sp in pkg.subprograms:
        decisions, returns, short_circuit, nodes = _tally(sp)
        # Essential: 1 for fully structured code, +1 per early return
        # (extra exit).
        extra_exits = max(0, returns - (1 if sp.is_function else 0))
        statements = count_statements(sp.body)
        per[sp.name] = SubprogramComplexity(
            name=sp.name,
            mccabe=1 + decisions,
            essential=1 + extra_exits,
            statement_complexity=nodes / statements if statements else 0.0,
            short_circuit=short_circuit,
            loop_nesting=_loop_nesting(sp.body),
        )
    return ComplexityMetrics(per_subprogram=per)
