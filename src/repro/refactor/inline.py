"""Reversing inlined functions or cloned code (paper 5.1).

Two mechanical forms:

* :class:`ExtractFunction` -- the user supplies a function definition whose
  body is a single return expression; every subexpression in the package
  matching that expression pattern (parameters act as pattern variables) is
  replaced by a call.  This is how inlined ``SubWord``/``RotWord``/GF
  arithmetic is recovered in the AES study.
* :class:`ExtractProcedureClone` -- the user supplies a procedure; every
  maximal statement window matching its body modulo consistent parameter
  substitution is replaced by a call.

Both reject application when no occurrence matches -- so a defect inside
one clone (and not the others) leaves the defective occurrence visibly
un-replaced, or fails the transformation outright when the window was
specified explicitly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..lang import TypedPackage, ast, parse_package
from ..lang.errors import MiniAdaError
from .engine import Transformation, TransformationError

__all__ = ["ExtractFunction", "ExtractProcedureClone", "parse_subprogram"]


def parse_subprogram(source: str) -> ast.Subprogram:
    """Parse a single subprogram given as bare source text."""
    wrapped = f"package Snippet is\n{source}\nend Snippet;"
    try:
        pkg = parse_package(wrapped)
    except MiniAdaError as exc:
        raise TransformationError(f"cannot parse subprogram snippet: {exc}")
    if len(pkg.subprograms) != 1:
        raise TransformationError("snippet must contain exactly one subprogram")
    return pkg.subprograms[0]


def resolve_snippet(typed: TypedPackage,
                    snippet: ast.Subprogram) -> ast.Subprogram:
    """Type-check a snippet against the current package's declarations so
    its AST is in resolved form (ArrayRef/FuncCall/Conversion), matching
    the resolved trees it will be pattern-matched against."""
    from ..lang import analyze
    if snippet.name in typed.signatures:
        raise TransformationError(f"'{snippet.name}' already exists")
    probe = dataclasses.replace(
        typed.package,
        subprograms=typed.package.subprograms + (snippet,))
    try:
        resolved = analyze(probe)
    except MiniAdaError as exc:
        raise TransformationError(f"snippet does not type-check: {exc}")
    return resolved.package.subprogram(snippet.name)


def _match_expr(pattern: ast.Expr, expr: ast.Expr, params: frozenset,
                binding: Dict[str, ast.Expr]) -> bool:
    if isinstance(pattern, ast.Name) and pattern.id in params:
        existing = binding.get(pattern.id)
        if existing is None:
            binding[pattern.id] = expr
            return True
        return existing == expr
    if type(pattern) is not type(expr):
        return False
    if isinstance(pattern, (ast.IntLit, ast.BoolLit)):
        return pattern.value == expr.value
    if isinstance(pattern, ast.Name):
        return pattern.id == expr.id
    if not dataclasses.is_dataclass(pattern):
        return False
    for name in ast.field_names(type(pattern)):
        p_val = getattr(pattern, name)
        e_val = getattr(expr, name)
        if isinstance(p_val, ast.Node):
            if not isinstance(e_val, ast.Node) or \
                    not _match_expr(p_val, e_val, params, binding):
                return False
        elif isinstance(p_val, tuple):
            if not isinstance(e_val, tuple) or len(p_val) != len(e_val):
                return False
            for p_item, e_item in zip(p_val, e_val):
                if isinstance(p_item, ast.Node):
                    if not _match_expr(p_item, e_item, params, binding):
                        return False
                elif p_item != e_item:
                    return False
        elif p_val != e_val:
            return False
    return True


@dataclass
class ExtractFunction(Transformation):
    """Replace occurrences of an expression pattern with calls to a new
    (user-supplied) function whose body is exactly that pattern."""

    function_source: str
    targets: Optional[Tuple[str, ...]] = None  # subprograms to rewrite
    minimum_occurrences: int = 1

    name = "extract-function"
    category = "reversing inlined functions or cloned code"

    def describe(self) -> str:
        fn = parse_subprogram(self.function_source)
        return f"extract inlined occurrences of {fn.name} into calls"

    def affected_subprograms(self, typed):
        return list(self.targets) if self.targets else []

    def apply(self, typed: TypedPackage) -> ast.Package:
        fn = parse_subprogram(self.function_source)
        if not fn.is_function:
            raise TransformationError(f"{self.name}: snippet must be a function")
        fn = resolve_snippet(typed, fn)
        if len(fn.body) != 1 or not isinstance(fn.body[0], ast.Return):
            raise TransformationError(
                f"{self.name}: function body must be a single return")
        pattern = fn.body[0].value
        params = frozenset(p.name for p in fn.params)
        occurrences = 0

        def rewrite_expr(node):
            nonlocal occurrences
            if isinstance(node, ast.Expr):
                binding: Dict[str, ast.Expr] = {}
                if _match_expr(pattern, node, params, binding) and \
                        set(binding) == set(params):
                    occurrences += 1
                    return ast.FuncCall(
                        name=fn.name,
                        args=tuple(binding[p.name] for p in fn.params))
            return node

        new_subprograms = []
        target_names = set(self.targets) if self.targets else None
        for sp in typed.package.subprograms:
            if target_names is not None and sp.name not in target_names:
                new_subprograms.append(sp)
                continue
            new_sp = ast.transform_bottom_up(sp, rewrite_expr)
            new_subprograms.append(new_sp)
        if occurrences < self.minimum_occurrences:
            raise TransformationError(
                f"{self.name}: pattern for {fn.name} matched {occurrences} "
                f"time(s), expected at least {self.minimum_occurrences}")
        pkg = dataclasses.replace(
            typed.package, subprograms=tuple(new_subprograms) + (fn,))
        return pkg


@dataclass
class ExtractProcedureClone(Transformation):
    """Replace statement windows matching a (user-supplied) procedure body
    with calls to it.  Matching is modulo consistent substitution of the
    procedure's parameters: ``in`` parameters match any expression, ``out``
    and ``in out`` parameters match variable or component names."""

    procedure_source: str
    targets: Optional[Tuple[str, ...]] = None
    minimum_occurrences: int = 1

    name = "extract-procedure-clone"
    category = "reversing inlined functions or cloned code"

    def describe(self) -> str:
        proc = parse_subprogram(self.procedure_source)
        return f"extract cloned blocks into calls to {proc.name}"

    def affected_subprograms(self, typed):
        return list(self.targets) if self.targets else []

    def apply(self, typed: TypedPackage) -> ast.Package:
        proc = parse_subprogram(self.procedure_source)
        if proc.is_function:
            raise TransformationError(
                f"{self.name}: snippet must be a procedure")
        proc = resolve_snippet(typed, proc)
        if proc.decls:
            raise TransformationError(
                f"{self.name}: clone pattern may not declare locals")
        params = frozenset(p.name for p in proc.params)
        out_params = {p.name for p in proc.params if p.mode != "in"}
        pattern = proc.body
        occurrences = 0

        def try_match(window) -> Optional[Dict[str, ast.Expr]]:
            binding: Dict[str, ast.Expr] = {}
            for p_stmt, stmt in zip(pattern, window):
                if not _match_expr(p_stmt, stmt, params, binding):
                    return None
            if set(binding) != set(params):
                return None
            for out in out_params:
                bound = binding[out]
                if not isinstance(bound, (ast.Name, ast.ArrayRef)):
                    return None
            return binding

        def rewrite_block(stmts):
            nonlocal occurrences
            out: List[ast.Stmt] = []
            i = 0
            n = len(pattern)
            stmts = list(stmts)
            while i < len(stmts):
                window = stmts[i:i + n]
                binding = try_match(window) if len(window) == n else None
                if binding is not None:
                    occurrences += 1
                    out.append(ast.ProcCall(
                        name=proc.name,
                        args=tuple(binding[p.name] for p in proc.params)))
                    i += n
                    continue
                stmt = stmts[i]
                out.append(_rewrite_stmt(stmt))
                i += 1
            return tuple(out)

        def _rewrite_stmt(stmt):
            if isinstance(stmt, ast.If):
                branches = tuple((c, rewrite_block(b))
                                 for c, b in stmt.branches)
                return ast.If(branches=branches,
                              else_body=rewrite_block(stmt.else_body))
            if isinstance(stmt, (ast.For, ast.While)):
                return dataclasses.replace(stmt, body=rewrite_block(stmt.body))
            return stmt

        new_subprograms = []
        target_names = set(self.targets) if self.targets else None
        for sp in typed.package.subprograms:
            if target_names is not None and sp.name not in target_names:
                new_subprograms.append(sp)
                continue
            new_subprograms.append(
                dataclasses.replace(sp, body=rewrite_block(sp.body)))
        if occurrences < self.minimum_occurrences:
            raise TransformationError(
                f"{self.name}: clone pattern for {proc.name} matched "
                f"{occurrences} time(s), expected at least "
                f"{self.minimum_occurrences}")
        return dataclasses.replace(
            typed.package, subprograms=tuple(new_subprograms) + (proc,))
