"""Def/use dataflow analysis for refactoring applicability checks.

Splitting a procedure needs the live-in/live-out sets of a statement range
to compute parameters; moving statements into conditionals needs
write/read independence; separating loops needs cross-iteration
independence.  All of those reduce to the conservative read/write sets
computed here.
"""

from __future__ import annotations

from typing import Sequence, Set, Tuple

from ..lang import TypedPackage, ast

__all__ = ["reads_of_expr", "reads_of_stmts", "writes_of_stmts"]


def reads_of_expr(expr: ast.Expr) -> Set[str]:
    """Variable names an expression may read (constants excluded by the
    caller if desired -- constants are immutable so they never interfere)."""
    out: Set[str] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.OldExpr):
            out.add(node.name)
    return out


def _target_reads(target: ast.Expr) -> Set[str]:
    """Reads performed while storing to a target: every index expression,
    and the root itself for a component store (partial update)."""
    out: Set[str] = set()
    node = target
    while isinstance(node, ast.ArrayRef):
        out |= reads_of_expr(node.index)
        node = node.base
    return out


def _root(target: ast.Expr) -> str:
    node = target
    while isinstance(node, ast.ArrayRef):
        node = node.base
    assert isinstance(node, ast.Name)
    return node.id


def reads_writes(stmts: Sequence[ast.Stmt],
                 typed: TypedPackage = None) -> Tuple[Set[str], Set[str]]:
    reads: Set[str] = set()
    writes: Set[str] = set()
    for stmt in stmts:
        _collect(stmt, reads, writes, typed)
    return reads, writes


def _collect(stmt: ast.Stmt, reads: Set[str], writes: Set[str],
             typed: TypedPackage):
    if isinstance(stmt, ast.Assign):
        reads |= reads_of_expr(stmt.value)
        reads |= _target_reads(stmt.target)
        root = _root(stmt.target)
        writes.add(root)
        if isinstance(stmt.target, ast.ArrayRef):
            reads.add(root)  # partial update reads the old array
    elif isinstance(stmt, ast.If):
        for cond, body in stmt.branches:
            reads |= reads_of_expr(cond)
            for s in body:
                _collect(s, reads, writes, typed)
        for s in stmt.else_body:
            _collect(s, reads, writes, typed)
    elif isinstance(stmt, ast.For):
        reads |= reads_of_expr(stmt.lo) | reads_of_expr(stmt.hi)
        writes.add(stmt.var)
        for s in stmt.body:
            _collect(s, reads, writes, typed)
    elif isinstance(stmt, ast.While):
        reads |= reads_of_expr(stmt.cond)
        for s in stmt.body:
            _collect(s, reads, writes, typed)
    elif isinstance(stmt, ast.ProcCall):
        if typed is not None:
            callee = typed.signatures[stmt.name]
            for arg, param in zip(stmt.args, callee.params):
                if param.mode != "out":
                    reads |= reads_of_expr(arg)
                else:
                    reads |= _target_reads(arg)
                if param.mode != "in":
                    writes.add(_root(arg))
                    if isinstance(arg, ast.ArrayRef):
                        reads.add(_root(arg))
        else:
            for arg in stmt.args:
                reads |= reads_of_expr(arg)
    elif isinstance(stmt, ast.Return):
        if stmt.value is not None:
            reads |= reads_of_expr(stmt.value)
    elif isinstance(stmt, ast.Assert):
        reads |= reads_of_expr(stmt.expr)


def reads_of_stmts(stmts: Sequence[ast.Stmt],
                   typed: TypedPackage = None) -> Set[str]:
    return reads_writes(stmts, typed)[0]


def writes_of_stmts(stmts: Sequence[ast.Stmt],
                    typed: TypedPackage = None) -> Set[str]:
    return reads_writes(stmts, typed)[1]
