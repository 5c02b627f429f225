"""Translation of MiniAda expressions into logical terms, with run-time
check collection.

Every expression translates to a :class:`~repro.logic.terms.Term` over the
current symbolic state (program variables are logic variables).  Alongside
the value term, the translator collects *check obligations* -- the
exception-freedom conditions SPARK generates: array index in bounds,
division by zero, conversion/assignment range checks.  Short-circuit
operators guard the checks of their right operand, exactly as SPARK does.

Constant tables translate to interpreted applications ``TableName(index)``
rather than store-chains; the prover's ground evaluator resolves them from
the package's constant pool.  This matches SPARK treating constants as
function-like proof rules, and keeps VC size honest (a table *reference*
in the source is one application, not 256 stores).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..lang import ast
from ..lang.typecheck import SubprogramContext, TypedPackage
from ..lang.types import BooleanType, ModularType, RangeType, Type
from ..logic import (
    Term, add, apply, band, bnot, boolc, bor, conj, disj, divi, eq, forall, ge,
    gt, iff, implies, intc, le, lt, modi, mul, ne, neg, select, shl, shr, sub,
    var, xor,
)

__all__ = ["Check", "TranslationContext", "translate_expr", "type_bounds"]


@dataclass(frozen=True)
class Check:
    """One run-time check obligation collected during translation."""

    kind: str  # 'index', 'div', 'range', 'overflow'
    condition: Term


@dataclass
class TranslationContext:
    """Carries everything expression translation needs."""

    typed: TypedPackage
    ctx: SubprogramContext
    #: Maps a program variable to the term denoting its current value.
    #: Defaults to ``var(name)`` when absent.
    state: Dict[str, Term] = field(default_factory=dict)
    checks: List[Check] = field(default_factory=list)
    #: Extra declared integer bounds for bound variables (loop counters).
    local_bounds: Dict[str, Tuple[Term, Term]] = field(default_factory=dict)

    def value_of(self, name: str) -> Term:
        return self.state.get(name, var(name))

    def check(self, kind: str, condition: Term):
        if not condition.is_true:
            self.checks.append(Check(kind=kind, condition=condition))

    def guarded(self) -> "TranslationContext":
        """A child context collecting checks separately (for short-circuit
        guards); the caller merges them back with a guard."""
        return TranslationContext(
            typed=self.typed, ctx=self.ctx, state=self.state,
            checks=[], local_bounds=self.local_bounds)

    def merge_guarded(self, child: "TranslationContext", guard: Term):
        for check in child.checks:
            self.check(check.kind, implies(guard, check.condition))


def type_bounds(t: Type) -> Optional[Tuple[int, int]]:
    """Static (lo, hi) bounds for scalar types, or None for Integer/Boolean."""
    if isinstance(t, ModularType):
        return (0, t.modulus - 1)
    if isinstance(t, RangeType):
        return (t.lo, t.hi)
    return None


def _typeof(tc: TranslationContext, expr: ast.Expr) -> Type:
    return tc.ctx.infer(expr)


def translate_expr(tc: TranslationContext, expr: ast.Expr) -> Term:
    """Translate ``expr`` to a term over ``tc.state``, collecting checks."""
    if isinstance(expr, ast.IntLit):
        return intc(expr.value)
    if isinstance(expr, ast.BoolLit):
        return boolc(expr.value)
    if isinstance(expr, ast.Name):
        if expr.id in tc.typed.constants:
            ctype, cval = tc.typed.constants[expr.id]
            if not isinstance(cval, tuple):
                return intc(cval) if not isinstance(cval, bool) else boolc(cval)
            # Whole-array constant reference: keep symbolic by name.
            return var(expr.id)
        return tc.value_of(expr.id)
    if isinstance(expr, ast.OldExpr):
        return var(f"{expr.name}@old")
    if isinstance(expr, ast.ArrayRef):
        return _translate_array_ref(tc, expr)
    if isinstance(expr, ast.Conversion):
        return _translate_conversion(tc, expr)
    if isinstance(expr, ast.FuncCall):
        return _translate_call(tc, expr)
    if isinstance(expr, ast.UnOp):
        operand = translate_expr(tc, expr.operand)
        t = _typeof(tc, expr)
        if expr.op == "not":
            if isinstance(t, ModularType):
                return bnot(operand, t.width)
            return neg(operand)
        if expr.op == "-":
            if isinstance(t, ModularType):
                return modi(sub(intc(0), operand), intc(t.modulus))
            return sub(intc(0), operand)
        raise AssertionError(f"unknown unary {expr.op}")
    if isinstance(expr, ast.BinOp):
        return _translate_binop(tc, expr)
    if isinstance(expr, ast.ForAll):
        return _translate_forall(tc, expr)
    raise AssertionError(f"cannot translate {type(expr).__name__}")


def _translate_array_ref(tc: TranslationContext, expr: ast.ArrayRef) -> Term:
    base_t = _typeof(tc, expr.base)
    index = translate_expr(tc, expr.index)
    tc.check("index", conj(le(intc(base_t.lo), index),
                           le(index, intc(base_t.hi))))
    offset = index if base_t.lo == 0 else sub(index, intc(base_t.lo))
    # Constant table read: interpreted application.
    if isinstance(expr.base, ast.Name) and expr.base.id in tc.typed.constants:
        return apply(expr.base.id, offset)
    base = translate_expr(tc, expr.base)
    return select(base, offset)


def _translate_conversion(tc: TranslationContext, expr: ast.Conversion) -> Term:
    value = translate_expr(tc, expr.operand)
    target = tc.typed.type_named(expr.type_name)
    bounds = type_bounds(target)
    if bounds is not None:
        source_bounds = type_bounds(_typeof(tc, expr.operand))
        if source_bounds is None or not (
                bounds[0] <= source_bounds[0] and source_bounds[1] <= bounds[1]):
            tc.check("range", conj(le(intc(bounds[0]), value),
                                   le(value, intc(bounds[1]))))
    return value


def _translate_call(tc: TranslationContext, expr: ast.FuncCall) -> Term:
    if expr.name in ("Shift_Left", "Shift_Right"):
        value = translate_expr(tc, expr.args[0])
        amount = translate_expr(tc, expr.args[1])
        t = _typeof(tc, expr)
        if expr.name == "Shift_Left":
            return modi(shl(value, amount), intc(t.modulus))
        return shr(value, amount)
    args = tuple(translate_expr(tc, a) for a in expr.args)
    sig = tc.typed.signatures.get(expr.name)
    if sig is not None and sig.pre:
        # Precondition check at the call site.
        mapping = {p.name: a for p, a in zip(sig.params, args)}
        callee_ctx = tc.typed.context(expr.name).runtime_view()
        for pre in sig.pre:
            pre_tc = TranslationContext(
                typed=tc.typed, ctx=callee_ctx, state=dict(mapping))
            tc.check("precondition", translate_expr(pre_tc, pre))
    return apply(expr.name, *args)


def _translate_binop(tc: TranslationContext, expr: ast.BinOp) -> Term:
    op = expr.op
    if op in ("and_then", "or_else"):
        left = translate_expr(tc, expr.left)
        child = tc.guarded()
        right = translate_expr(child, expr.right)
        guard = left if op == "and_then" else neg(left)
        tc.merge_guarded(child, guard)
        return conj(left, right) if op == "and_then" else disj(left, right)

    left = translate_expr(tc, expr.left)
    right = translate_expr(tc, expr.right)
    if op in ("=", "/="):
        result = eq(left, right)
        return result if op == "=" else neg(result)
    if op == "<":
        return lt(left, right)
    if op == "<=":
        return le(left, right)
    if op == ">":
        return gt(left, right)
    if op == ">=":
        return ge(left, right)

    t = _typeof(tc, expr)
    if op in ("and", "or", "xor"):
        if isinstance(t, BooleanType):
            if op == "and":
                return conj(left, right)
            if op == "or":
                return disj(left, right)
            return neg(iff(left, right))
        if op == "and":
            return band(left, right)
        if op == "or":
            return bor(left, right)
        return xor(left, right)

    modulus = t.modulus if isinstance(t, ModularType) else None
    if op == "+":
        raw = add(left, right)
        return modi(raw, intc(modulus)) if modulus else raw
    if op == "-":
        raw = sub(left, right)
        return modi(raw, intc(modulus)) if modulus else raw
    if op == "*":
        raw = mul(left, right)
        return modi(raw, intc(modulus)) if modulus else raw
    if op == "/":
        tc.check("div", ne(right, intc(0)))
        return divi(left, right)
    if op == "mod":
        tc.check("div", ne(right, intc(0)))
        return modi(left, right)
    raise AssertionError(f"unknown operator {op}")


def _translate_forall(tc: TranslationContext, expr: ast.ForAll) -> Term:
    lo = translate_expr(tc, expr.lo)
    hi = translate_expr(tc, expr.hi)
    bound_name = f"{expr.var}?"
    inner = TranslationContext(
        typed=tc.typed, ctx=tc.ctx,
        state={**tc.state, expr.var: var(bound_name)},
        checks=[], local_bounds=tc.local_bounds)
    tc.ctx.push_loop_var(expr.var)
    try:
        body = translate_expr(inner, expr.body)
    finally:
        tc.ctx.pop_loop_var()
    range_hyp = conj(le(lo, var(bound_name)), le(var(bound_name), hi))
    # Checks collected inside the quantified body hold only under the
    # quantifier's range; re-quantify them.
    for check in inner.checks:
        tc.check(check.kind,
                 forall([bound_name], implies(range_hyp, check.condition)))
    return forall([bound_name], implies(range_hyp, body))
