"""Concrete interpreter for MiniAda.

The interpreter provides the *dynamic semantics* against which everything
else is judged:

* differential testing of refactoring transformations (equal initial state
  must produce equal final state -- the paper's semantics-preservation
  theorem, section 5.1);
* validation of the AES implementation against FIPS-197 test vectors;
* the observable behaviour of seeded defects (section 7).

Run-time checks (array bounds, subtype ranges, division by zero, assertion
failures) raise :class:`~repro.lang.errors.RuntimeFault`; these correspond
exactly to SPARK's exception-freedom proof obligations.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from . import ast
from .errors import RuntimeFault, StepLimitExceeded, TypeError_
from .typecheck import TypedPackage
from .types import ArrayType, BooleanType, ModularType, RangeType, Type

__all__ = ["Interpreter", "make_default_value", "deep_copy_value"]


class _ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value


def make_default_value(t: Type):
    """An 'uninitialized' value of type ``t``: scalars are None (reading one
    faults), arrays are allocated with uninitialized elements."""
    if isinstance(t, ArrayType):
        return [make_default_value(t.elem) for _ in range(t.length)]
    return None


def deep_copy_value(value):
    if isinstance(value, list):
        return [deep_copy_value(v) for v in value]
    return value


class Interpreter:
    """Executes subprograms of one type-checked package."""

    def __init__(self, typed: TypedPackage, step_limit: int = 50_000_000,
                 check_asserts: bool = True):
        self.typed = typed
        self.step_limit = step_limit
        self.check_asserts = check_asserts
        self.steps = 0
        self._type_cache: Dict[tuple, Type] = {}
        #: per-interpreter runtime contexts: loop-variable push/pop during
        #: execution must not mutate the shared contexts on ``typed`` (two
        #: interpreters on different threads would corrupt each other's
        #: loop-variable stacks mid-loop).
        self._ctx_cache: Dict[str, object] = {}

    # -- public entry points -------------------------------------------------

    def call_function(self, name: str, args: List):
        """Call a function subprogram with positional argument values."""
        sp = self.typed.signatures[name]
        if not sp.is_function:
            raise TypeError_(f"'{name}' is not a function")
        return self._invoke(sp, list(args))["Result"]

    def call_procedure(self, name: str, args: List) -> Dict[str, object]:
        """Call a procedure with positional argument values; returns a dict
        of the out/in-out parameter values after the call."""
        sp = self.typed.signatures[name]
        if sp.is_function:
            raise TypeError_(f"'{name}' is not a procedure")
        env = self._invoke(sp, list(args))
        return {p.name: env[p.name] for p in sp.params if p.mode != "in"}

    # -- machinery ------------------------------------------------------------

    def _step(self, cost: int = 1):
        self.steps += cost
        if self.steps > self.step_limit:
            raise StepLimitExceeded(
                f"interpreter exceeded {self.step_limit} steps")

    def _invoke(self, sp: ast.Subprogram, arg_values: List) -> Dict:
        if len(arg_values) != len(sp.params):
            raise TypeError_(f"{sp.name}: expected {len(sp.params)} arguments")
        ctx = self._ctx_cache.get(sp.name)
        if ctx is None:
            ctx = self.typed.context(sp.name).runtime_view()
            self._ctx_cache[sp.name] = ctx
        env: Dict[str, object] = {}
        for p, value in zip(sp.params, arg_values):
            if p.mode == "out":
                env[p.name] = make_default_value(ctx.var_type(p.name))
            else:
                env[p.name] = deep_copy_value(value)
                self._range_check(ctx.var_type(p.name), env[p.name], p.name)
        for d in sp.decls:
            t = ctx.var_type(d.name)
            if d.init is not None:
                env[d.name] = self._eval_in_type(d.init, env, ctx, t)
                self._range_check(t, env[d.name], d.name)
            else:
                env[d.name] = make_default_value(t)
        try:
            self._exec_block(sp.body, env, ctx)
            if sp.is_function:
                raise RuntimeFault(f"function {sp.name} fell off the end")
        except _ReturnSignal as ret:
            if sp.is_function:
                env["Result"] = ret.value
        return env

    # -- statements -----------------------------------------------------------

    def _exec_block(self, stmts, env, ctx):
        for stmt in stmts:
            self._exec(stmt, env, ctx)

    def _exec(self, stmt: ast.Stmt, env, ctx):
        self._step()
        if isinstance(stmt, ast.Assign):
            t = self._typeof(stmt.target, ctx)
            value = self._eval_in_type(stmt.value, env, ctx, t)
            if isinstance(value, list):
                # Value semantics: `A := B;` must not alias B's storage.
                value = deep_copy_value(value)
            self._range_check(t, value, ast_target_name(stmt.target))
            self._store(stmt.target, value, env, ctx)
            return
        if isinstance(stmt, ast.If):
            for cond, body in stmt.branches:
                if self._eval(cond, env, ctx):
                    self._exec_block(body, env, ctx)
                    return
            self._exec_block(stmt.else_body, env, ctx)
            return
        if isinstance(stmt, ast.For):
            lo = self._eval(stmt.lo, env, ctx)
            hi = self._eval(stmt.hi, env, ctx)
            indices = range(hi, lo - 1, -1) if stmt.reverse else range(lo, hi + 1)
            shadow = env.get(stmt.var, _MISSING)
            ctx.push_loop_var(stmt.var)
            try:
                for i in indices:
                    env[stmt.var] = i
                    self._exec_block(stmt.body, env, ctx)
            finally:
                ctx.pop_loop_var()
            if shadow is _MISSING:
                env.pop(stmt.var, None)
            else:
                env[stmt.var] = shadow
            return
        if isinstance(stmt, ast.While):
            while self._eval(stmt.cond, env, ctx):
                self._exec_block(stmt.body, env, ctx)
                self._step()
            return
        if isinstance(stmt, ast.ProcCall):
            self._exec_call(stmt, env, ctx)
            return
        if isinstance(stmt, ast.Return):
            value = None
            if stmt.value is not None:
                sp = ctx.subprogram
                rt = self.typed.type_named(sp.return_type)
                value = self._eval_in_type(stmt.value, env, ctx, rt)
                self._range_check(rt, value, "Result")
            raise _ReturnSignal(value)
        if isinstance(stmt, ast.Null):
            return
        if isinstance(stmt, ast.Assert):
            if self.check_asserts:
                if not self._eval(stmt.expr, env, ctx):
                    raise RuntimeFault(
                        f"assertion failed in {ctx.subprogram.name}")
            return
        raise TypeError_(f"cannot execute {type(stmt).__name__}")

    def _exec_call(self, stmt: ast.ProcCall, env, ctx):
        callee = self.typed.signatures[stmt.name]
        values = []
        for arg, param in zip(stmt.args, callee.params):
            if param.mode == "out":
                values.append(None)  # placeholder; callee allocates
            else:
                values.append(self._eval(arg, env, ctx))
        callee_env = self._invoke(callee, values)
        for arg, param in zip(stmt.args, callee.params):
            if param.mode != "in":
                self._store(arg, callee_env[param.name], env, ctx)

    def _store(self, target: ast.Expr, value, env, ctx):
        if isinstance(target, ast.Name):
            env[target.id] = value
            return
        if isinstance(target, ast.ArrayRef):
            container, slot = self._locate(target, env, ctx)
            container[slot] = value
            return
        raise TypeError_("bad assignment target")

    def _locate(self, ref: ast.ArrayRef, env, ctx):
        """Return (python list, index offset) for an array component."""
        base_t = self._typeof(ref.base, ctx)
        idx = self._eval(ref.index, env, ctx)
        if not (base_t.lo <= idx <= base_t.hi):
            raise RuntimeFault(
                f"index {idx} out of range {base_t.lo} .. {base_t.hi} "
                f"in {ctx.subprogram.name}")
        offset = idx - base_t.lo
        if isinstance(ref.base, ast.Name):
            if ref.base.id in env:
                arr = env[ref.base.id]
            elif ref.base.id in self.typed.constants:
                # Constant tables are stored as tuples: indexable, immutable
                # (the type checker rejects writes to constants).
                arr = self.typed.constants[ref.base.id][1]
            else:
                arr = None
            if arr is None:
                raise RuntimeFault(f"use of uninitialized array '{ref.base.id}'")
            return arr, offset
        if isinstance(ref.base, ast.ArrayRef):
            container, slot = self._locate(ref.base, env, ctx)
            inner = container[slot]
            if inner is None:
                raise RuntimeFault("use of uninitialized array component")
            return inner, offset
        raise TypeError_("bad array reference base")

    # -- expressions -----------------------------------------------------------

    def _typeof(self, expr: ast.Expr, ctx) -> Type:
        key = (ctx.subprogram.name, id(expr))
        hit = self._type_cache.get(key)
        if hit is None:
            hit = ctx.infer(expr)
            self._type_cache[key] = hit
        return hit

    def _eval_in_type(self, expr: ast.Expr, env, ctx, want: Type):
        if isinstance(expr, ast.Aggregate):
            if not isinstance(want, ArrayType):
                raise TypeError_("aggregate outside array context")
            items = [self._eval_in_type(e, env, ctx, want.elem)
                     for e in expr.items]
            if expr.others is not None:
                fill = self._eval_in_type(expr.others, env, ctx, want.elem)
                items.extend(deep_copy_value(fill)
                             for _ in range(want.length - len(items)))
            if len(items) != want.length:
                raise RuntimeFault(
                    f"aggregate length {len(items)} /= {want.length}")
            return items
        return self._eval(expr, env, ctx)

    def _eval(self, expr: ast.Expr, env, ctx):
        self._step()
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.BoolLit):
            return expr.value
        if isinstance(expr, ast.Name):
            if expr.id in env:
                value = env[expr.id]
            elif expr.id in self.typed.constants:
                ctype, cval = self.typed.constants[expr.id]
                value = list(cval) if isinstance(cval, tuple) else cval
            else:
                raise TypeError_(f"unknown name '{expr.id}'")
            if value is None:
                raise RuntimeFault(f"use of uninitialized variable '{expr.id}' "
                                   f"in {ctx.subprogram.name}")
            return value
        if isinstance(expr, ast.ArrayRef):
            container, slot = self._locate(expr, env, ctx)
            value = container[slot]
            if value is None:
                raise RuntimeFault("use of uninitialized array component "
                                   f"in {ctx.subprogram.name}")
            return value
        if isinstance(expr, ast.FuncCall):
            return self._eval_funcall(expr, env, ctx)
        if isinstance(expr, ast.Conversion):
            value = self._eval(expr.operand, env, ctx)
            target = self.typed.type_named(expr.type_name)
            if isinstance(target, ModularType):
                if not (0 <= value < target.modulus):
                    raise RuntimeFault(
                        f"conversion of {value} to {expr.type_name} out of "
                        f"range in {ctx.subprogram.name}")
            elif isinstance(target, RangeType):
                if not (target.lo <= value <= target.hi):
                    raise RuntimeFault(
                        f"conversion of {value} to {expr.type_name} out of "
                        f"range in {ctx.subprogram.name}")
            return value
        if isinstance(expr, ast.UnOp):
            operand = self._eval(expr.operand, env, ctx)
            t = self._typeof(expr, ctx)
            if expr.op == "not":
                if isinstance(t, ModularType):
                    return operand ^ (t.modulus - 1)
                return not operand
            if expr.op == "-":
                if isinstance(t, ModularType):
                    return (-operand) % t.modulus
                return -operand
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(expr, env, ctx)
        if isinstance(expr, ast.ForAll):
            lo = self._eval(expr.lo, env, ctx)
            hi = self._eval(expr.hi, env, ctx)
            shadow = env.get(expr.var, _MISSING)
            ctx.push_loop_var(expr.var)
            try:
                for i in range(lo, hi + 1):
                    env[expr.var] = i
                    if not self._eval(expr.body, env, ctx):
                        return False
                return True
            finally:
                ctx.pop_loop_var()
                if shadow is _MISSING:
                    env.pop(expr.var, None)
                else:
                    env[expr.var] = shadow
        if isinstance(expr, ast.OldExpr):
            raise TypeError_("'~' (old value) cannot be evaluated dynamically")
        raise TypeError_(f"cannot evaluate {type(expr).__name__}")

    def _eval_funcall(self, expr: ast.FuncCall, env, ctx):
        if expr.name in ("Shift_Left", "Shift_Right"):
            value = self._eval(expr.args[0], env, ctx)
            amount = self._eval(expr.args[1], env, ctx)
            t = self._typeof(expr, ctx)
            if expr.name == "Shift_Left":
                return (value << amount) % t.modulus
            return value >> amount
        if expr.name in self.typed.proof_functions:
            raise RuntimeFault(
                f"proof function {expr.name} has no executable body")
        args = [self._eval(a, env, ctx) for a in expr.args]
        return self.call_function(expr.name, args)

    def _eval_binop(self, expr: ast.BinOp, env, ctx):
        op = expr.op
        if op == "and_then":
            return bool(self._eval(expr.left, env, ctx)) and \
                bool(self._eval(expr.right, env, ctx))
        if op == "or_else":
            return bool(self._eval(expr.left, env, ctx)) or \
                bool(self._eval(expr.right, env, ctx))
        left = self._eval(expr.left, env, ctx)
        right = self._eval(expr.right, env, ctx)
        if op == "=":
            return left == right
        if op == "/=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        t = self._typeof(expr, ctx)
        modulus = t.modulus if isinstance(t, ModularType) else None
        if op == "+":
            result = left + right
            return result % modulus if modulus else result
        if op == "-":
            result = left - right
            return result % modulus if modulus else result
        if op == "*":
            result = left * right
            return result % modulus if modulus else result
        if op == "/":
            if right == 0:
                raise RuntimeFault(f"division by zero in {ctx.subprogram.name}")
            result = abs(left) // abs(right)
            if (left < 0) != (right < 0):
                result = -result
            return result % modulus if modulus else result
        if op == "mod":
            if right == 0:
                raise RuntimeFault(f"mod by zero in {ctx.subprogram.name}")
            return left % right  # Ada mod: sign of the right operand
        if op in ("and", "or", "xor"):
            if isinstance(t, BooleanType):
                if op == "and":
                    return bool(left) and bool(right)
                if op == "or":
                    return bool(left) or bool(right)
                return bool(left) != bool(right)
            if op == "and":
                return left & right
            if op == "or":
                return left | right
            return left ^ right
        raise TypeError_(f"unknown operator {op}")

    def _range_check(self, t: Type, value, name: str):
        if value is None:
            return
        if isinstance(t, RangeType):
            if not (t.lo <= value <= t.hi):
                raise RuntimeFault(
                    f"value {value} of '{name}' outside {t.lo} .. {t.hi}")
        elif isinstance(t, ModularType):
            if not (0 <= value < t.modulus):
                raise RuntimeFault(
                    f"value {value} of '{name}' outside mod {t.modulus}")


class _Missing:
    pass


_MISSING = _Missing()


def ast_target_name(target: ast.Expr) -> str:
    while isinstance(target, ast.ArrayRef):
        target = target.base
    return target.id if isinstance(target, ast.Name) else "?"
