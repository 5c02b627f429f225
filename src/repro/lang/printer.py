"""Canonical pretty-printer for MiniAda.

The printer defines the *measured text* of a program: the paper's
lines-of-code figures (figure 2(a)) are taken over refactored source text,
so every metric in :mod:`repro.metrics.elements` is computed from this
printer's output rather than from whatever formatting a source file happened
to use.  Output is stable: parse(print(parse(s))) == parse(s).
"""

from __future__ import annotations

from typing import List, Tuple

from . import ast
from .memo import ObjectMemo

__all__ = ["print_package", "print_subprogram", "print_expr", "print_stmt"]

_INDENT = "   "

# Precedence levels for parenthesization (higher binds tighter).
_LOGICAL_LEVEL = 1
_RELATION_LEVEL = 2
_ADD_LEVEL = 3
_MUL_LEVEL = 4
_UNARY_LEVEL = 5
_PRIMARY_LEVEL = 6

_OP_LEVEL = {
    "and": _LOGICAL_LEVEL, "or": _LOGICAL_LEVEL, "xor": _LOGICAL_LEVEL,
    "and_then": _LOGICAL_LEVEL, "or_else": _LOGICAL_LEVEL,
    "=": _RELATION_LEVEL, "/=": _RELATION_LEVEL, "<": _RELATION_LEVEL,
    "<=": _RELATION_LEVEL, ">": _RELATION_LEVEL, ">=": _RELATION_LEVEL,
    "+": _ADD_LEVEL, "-": _ADD_LEVEL,
    "*": _MUL_LEVEL, "/": _MUL_LEVEL, "mod": _MUL_LEVEL,
}

_OP_TEXT = {"and_then": "and then", "or_else": "or else"}


def _int_text(value: int) -> str:
    if value > 255:
        return f"16#{value:X}#"
    return str(value)


def print_expr(expr: ast.Expr) -> str:
    text, _ = _expr(expr)
    return text


def _expr(expr: ast.Expr) -> Tuple[str, int]:
    """Return (text, precedence level of the outermost operator)."""
    if isinstance(expr, ast.IntLit):
        return _int_text(expr.value), _PRIMARY_LEVEL
    if isinstance(expr, ast.BoolLit):
        return ("True" if expr.value else "False"), _PRIMARY_LEVEL
    if isinstance(expr, ast.Name):
        return expr.id, _PRIMARY_LEVEL
    if isinstance(expr, ast.OldExpr):
        return f"{expr.name}~", _PRIMARY_LEVEL
    if isinstance(expr, (ast.ArrayRef, ast.App)):
        return _application(expr), _PRIMARY_LEVEL
    if isinstance(expr, ast.FuncCall):
        args = ", ".join(print_expr(a) for a in expr.args)
        return f"{expr.name} ({args})", _PRIMARY_LEVEL
    if isinstance(expr, ast.Conversion):
        return f"{expr.type_name} ({print_expr(expr.operand)})", _PRIMARY_LEVEL
    if isinstance(expr, ast.UnOp):
        inner = _child(expr.operand, _UNARY_LEVEL)
        if expr.op == "not":
            return f"not {inner}", _UNARY_LEVEL
        return f"-{inner}", _UNARY_LEVEL
    if isinstance(expr, ast.BinOp):
        level = _OP_LEVEL[expr.op]
        op_text = _OP_TEXT.get(expr.op, expr.op)
        left = _child(expr.left, level, same_logical_op=expr.op)
        right = _child(expr.right, level + 1, same_logical_op=expr.op)
        return f"{left} {op_text} {right}", level
    if isinstance(expr, ast.Aggregate):
        parts = [print_expr(item) for item in expr.items]
        if expr.others is not None:
            parts.append(f"others => {print_expr(expr.others)}")
        return f"({', '.join(parts)})", _PRIMARY_LEVEL
    if isinstance(expr, ast.ForAll):
        return (f"(for all {expr.var} in {print_expr(expr.lo)} .. "
                f"{print_expr(expr.hi)} => {print_expr(expr.body)})",
                _PRIMARY_LEVEL)
    raise TypeError(f"cannot print {type(expr).__name__}")


def _child(expr: ast.Expr, min_level: int, same_logical_op: str = None) -> str:
    text, level = _expr(expr)
    needs_parens = level < min_level
    # Ada requires parentheses when mixing different logical operators.
    if (not needs_parens and same_logical_op is not None
            and isinstance(expr, ast.BinOp)
            and _OP_LEVEL.get(expr.op) == _LOGICAL_LEVEL
            and expr.op != same_logical_op):
        needs_parens = True
    return f"({text})" if needs_parens else text


def _application(expr: ast.Expr) -> str:
    if isinstance(expr, ast.ArrayRef):
        return f"{_application(expr.base)} ({print_expr(expr.index)})"
    if isinstance(expr, ast.App):
        args = ", ".join(print_expr(a) for a in expr.args)
        return f"{_application(expr.prefix)} ({args})"
    return print_expr(expr)


def _wrap_aggregate(prefix: str, agg: ast.Aggregate, indent: str,
                    lines: List[str]):
    """Emit a long aggregate wrapped at roughly 76 columns."""
    parts = [print_expr(item) for item in agg.items]
    if agg.others is not None:
        parts.append(f"others => {print_expr(agg.others)}")
    line = f"{indent}{prefix}("
    column_indent = " " * len(line)
    current = line
    for i, part in enumerate(parts):
        piece = part + ("," if i < len(parts) - 1 else "")
        if len(current) + len(piece) + 1 > 78 and current.strip() != "":
            lines.append(current.rstrip())
            current = column_indent
        current += piece + " "
    lines.append(current.rstrip() + ");")


def print_stmt(stmt: ast.Stmt, depth: int = 0) -> List[str]:
    indent = _INDENT * depth
    if isinstance(stmt, ast.Assign):
        return [f"{indent}{print_expr(stmt.target)} := {print_expr(stmt.value)};"]
    if isinstance(stmt, ast.Null):
        return [f"{indent}null;"]
    if isinstance(stmt, ast.Return):
        if stmt.value is None:
            return [f"{indent}return;"]
        return [f"{indent}return {print_expr(stmt.value)};"]
    if isinstance(stmt, ast.Assert):
        return [f"{indent}--# assert {print_expr(stmt.expr)};"]
    if isinstance(stmt, ast.ProcCall):
        if stmt.args:
            args = ", ".join(print_expr(a) for a in stmt.args)
            return [f"{indent}{stmt.name} ({args});"]
        return [f"{indent}{stmt.name};"]
    if isinstance(stmt, ast.If):
        lines = []
        for i, (cond, body) in enumerate(stmt.branches):
            kw = "if" if i == 0 else "elsif"
            lines.append(f"{indent}{kw} {print_expr(cond)} then")
            for s in body:
                lines.extend(print_stmt(s, depth + 1))
        if stmt.else_body:
            lines.append(f"{indent}else")
            for s in stmt.else_body:
                lines.extend(print_stmt(s, depth + 1))
        lines.append(f"{indent}end if;")
        return lines
    if isinstance(stmt, ast.For):
        reverse = "reverse " if stmt.reverse else ""
        lines = [f"{indent}for {stmt.var} in {reverse}{print_expr(stmt.lo)} .. "
                 f"{print_expr(stmt.hi)} loop"]
        for s in stmt.body:
            lines.extend(print_stmt(s, depth + 1))
        lines.append(f"{indent}end loop;")
        return lines
    if isinstance(stmt, ast.While):
        lines = [f"{indent}while {print_expr(stmt.cond)} loop"]
        for s in stmt.body:
            lines.extend(print_stmt(s, depth + 1))
        lines.append(f"{indent}end loop;")
        return lines
    raise TypeError(f"cannot print {type(stmt).__name__}")


def _print_param(p: ast.Param) -> str:
    return f"{p.name} : {p.mode} {p.type_name}"


#: subprogram -> its lines at depth 1; declaration -> its lines.  A
#: package prints as the concatenation of these, so a state that differs
#: from its parent in one subprogram prints only that one afresh.
_SUBPROGRAM_LINES = ObjectMemo()
_DECL_LINES = ObjectMemo()


def print_subprogram(sp: ast.Subprogram, depth: int = 1) -> List[str]:
    if depth != 1:
        return _subprogram_lines(sp, depth)
    lines = _SUBPROGRAM_LINES.get(sp)
    if lines is None:
        lines = _SUBPROGRAM_LINES.put(sp, tuple(_subprogram_lines(sp, 1)))
    return list(lines)


def _subprogram_lines(sp: ast.Subprogram, depth: int) -> List[str]:
    indent = _INDENT * depth
    lines = []
    if sp.params:
        params = "; ".join(_print_param(p) for p in sp.params)
        header = f"{sp.name} ({params})"
    else:
        header = sp.name
    if sp.is_function:
        lines.append(f"{indent}function {header} return {sp.return_type}")
    else:
        lines.append(f"{indent}procedure {header}")
    for e in sp.pre:
        lines.append(f"{indent}--# pre {print_expr(e)};")
    for e in sp.post:
        lines.append(f"{indent}--# post {print_expr(e)};")
    lines.append(f"{indent}is")
    for d in sp.decls:
        init = f" := {print_expr(d.init)}" if d.init is not None else ""
        lines.append(f"{indent}{_INDENT}{d.name} : {d.type_name}{init};")
    lines.append(f"{indent}begin")
    for s in sp.body:
        lines.extend(print_stmt(s, depth + 1))
    lines.append(f"{indent}end {sp.name};")
    return lines


def _decl_lines(d: ast.Decl) -> Tuple[str, ...]:
    lines = _DECL_LINES.get(d)
    if lines is not None:
        return lines
    lines: List[str] = []
    if isinstance(d, ast.ModTypeDecl):
        lines.append(f"{_INDENT}type {d.name} is mod {d.modulus};")
    elif isinstance(d, ast.RangeTypeDecl):
        lines.append(f"{_INDENT}type {d.name} is range {d.lo} .. {d.hi};")
    elif isinstance(d, ast.SubtypeDecl):
        lines.append(
            f"{_INDENT}subtype {d.name} is {d.base} range {d.lo} .. {d.hi};")
    elif isinstance(d, ast.ArrayTypeDecl):
        lines.append(f"{_INDENT}type {d.name} is array ({d.lo} .. {d.hi}) "
                     f"of {d.elem_type};")
    elif isinstance(d, ast.ConstDecl):
        if isinstance(d.value, ast.Aggregate):
            _wrap_aggregate(f"{d.name} : constant {d.type_name} := ",
                            d.value, _INDENT, lines)
        else:
            lines.append(f"{_INDENT}{d.name} : constant {d.type_name} := "
                         f"{print_expr(d.value)};")
    elif isinstance(d, ast.ProofFunctionDecl):
        if d.params:
            params = "; ".join(_print_param(p) for p in d.params)
            lines.append(f"{_INDENT}--# function {d.name} ({params}) "
                         f"return {d.return_type};")
        else:
            lines.append(f"{_INDENT}--# function {d.name} "
                         f"return {d.return_type};")
    elif isinstance(d, ast.ProofRuleDecl):
        if d.params:
            params = "; ".join(_print_param(p) for p in d.params)
            lines.append(f"{_INDENT}--# rule {d.name} ({params}): "
                         f"{print_expr(d.expr)};")
        else:
            lines.append(
                f"{_INDENT}--# rule {d.name}: {print_expr(d.expr)};")
    else:  # pragma: no cover - defensive
        raise TypeError(f"cannot print declaration {type(d).__name__}")
    return _DECL_LINES.put(d, tuple(lines))


def print_package(pkg: ast.Package) -> str:
    lines = [f"package {pkg.name} is", ""]
    for d in pkg.decls:
        lines.extend(_decl_lines(d))
    lines.append("")
    for sp in pkg.subprograms:
        lines.extend(print_subprogram(sp))
        lines.append("")
    lines.append(f"end {pkg.name};")
    return "\n".join(lines) + "\n"
