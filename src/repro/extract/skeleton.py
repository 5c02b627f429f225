"""Skeleton specification extraction (pre-annotation).

The paper extracts *skeleton* specifications after each transformation
block -- "these specifications were skeletons because they were obtained
before the code had been annotated" (6.2.2) -- solely to compare
architecture with the original specification (figure 2(f)).

A skeleton theory carries the mapped types, constant tables and function
*signatures* of a MiniAda package; function bodies are placeholders.
"""

from __future__ import annotations

from typing import List

from ..lang import TypedPackage, ast
from ..lang.types import (
    ArrayType, BooleanType, IntegerType, ModularType, RangeType, Type,
)
from ..spec import ast as s

__all__ = ["map_type", "extract_skeleton", "SkeletonError"]


class SkeletonError(Exception):
    pass


def map_type(t: Type) -> s.SType:
    """Direct mapping of MiniAda types to MiniPVS types."""
    if isinstance(t, ModularType):
        return s.SubrangeType(hi=t.modulus - 1)
    if isinstance(t, RangeType):
        if t.lo < 0:
            return s.NatType()  # MiniPVS is NAT-based
        return s.SubrangeType(hi=t.hi)
    if isinstance(t, BooleanType):
        return s.BoolType()
    if isinstance(t, IntegerType):
        return s.NatType()
    if isinstance(t, ArrayType):
        if t.lo != 0:
            raise SkeletonError(f"array {t.name} is not 0-based")
        return s.ArrayTypeS(size=t.length, elem=map_type(t.elem))
    raise SkeletonError(f"cannot map type {t!r}")


def param_bounds_from_pre(sp: ast.Subprogram):
    """Per-parameter (lo, hi) bounds stated by the precondition
    annotations (``--# pre P >= 0 and P <= 9;``).  Extraction *from
    annotated code* turns these into subrange types on the extracted
    function's parameters."""
    bounds = {}

    def note(name, lo=None, hi=None):
        old_lo, old_hi = bounds.get(name, (None, None))
        bounds[name] = (lo if lo is not None else old_lo,
                        hi if hi is not None else old_hi)

    def walk(expr):
        if isinstance(expr, ast.BinOp):
            if expr.op == "and":
                walk(expr.left)
                walk(expr.right)
                return
            left, right = expr.left, expr.right
            if isinstance(left, ast.Name) and isinstance(right, ast.IntLit):
                if expr.op in (">=",):
                    note(left.id, lo=right.value)
                elif expr.op == ">":
                    note(left.id, lo=right.value + 1)
                elif expr.op in ("<=",):
                    note(left.id, hi=right.value)
                elif expr.op == "<":
                    note(left.id, hi=right.value - 1)

    for pre in sp.pre:
        walk(pre)
    return bounds


def _function_signature(typed: TypedPackage, sp: ast.Subprogram):
    """(params, return type) of the subprogram as a spec function, or None
    when it has no functional reading (no outputs)."""
    pre_bounds = param_bounds_from_pre(sp)
    params = []
    for p in sp.params:
        if p.mode not in ("in", "in out"):
            continue
        mapped = map_type(typed.type_named(p.type_name))
        lo_hi = pre_bounds.get(p.name)
        if lo_hi is not None and isinstance(mapped, s.NatType):
            lo, hi = lo_hi
            if hi is not None and (lo is None or lo >= 0):
                mapped = s.SubrangeType(hi=hi)
        params.append((p.name, mapped))
    if sp.is_function:
        return tuple(params), map_type(typed.type_named(sp.return_type))
    outs = [p for p in sp.params if p.mode != "in"]
    if len(outs) != 1:
        return None
    return tuple(params), map_type(typed.type_named(outs[0].type_name))


def extract_skeleton(typed: TypedPackage) -> s.Theory:
    """Architecture-only theory: types, tables, function signatures."""
    decls: List[s.SDecl] = []
    for d in typed.package.decls:
        if isinstance(d, (ast.ModTypeDecl, ast.RangeTypeDecl,
                          ast.SubtypeDecl, ast.ArrayTypeDecl)):
            decls.append(s.TypeDef(name=d.name,
                                   definition=map_type(typed.types[d.name])))
        elif isinstance(d, ast.ConstDecl):
            ctype, cval = typed.constants[d.name]
            if isinstance(ctype, ArrayType):
                decls.append(s.ConstDef(
                    name=d.name, type=map_type(ctype),
                    value=s.TableLit(values=tuple(cval))))
            else:
                decls.append(s.ConstDef(
                    name=d.name, type=map_type(ctype),
                    value=s.Num(value=cval if cval >= 0 else 0)))
    for sp in typed.package.subprograms:
        signature = _function_signature(typed, sp)
        if signature is None:
            continue
        params, rtype = signature
        decls.append(s.FunDef(
            name=sp.name, params=params, return_type=rtype,
            body=s.Var(name="#skeleton")))
    return s.Theory(name=typed.package.name, decls=tuple(decls))
