"""Name resolution and type checking for MiniAda.

``analyze`` takes a parsed :class:`~repro.lang.ast.Package` and returns a
:class:`TypedPackage`:

* every syntactic application ``F (X)`` is resolved into an
  :class:`~repro.lang.ast.ArrayRef` or :class:`~repro.lang.ast.FuncCall`;
* constants are evaluated to Python values (tables become tuples);
* per-subprogram contexts provide ``infer`` for expression typing, used by
  the interpreter, the VC generator and the extractor.

All static errors are collected and raised together as one
:class:`~repro.lang.errors.TypeError_` so a defective program reports every
problem at once.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from . import ast
from .errors import TypeError_
from .memo import ObjectMemo
from .types import (
    ArrayType, BOOLEAN, BooleanType, INTEGER, ModularType,
    RangeType, Type, UNIV_INT, compatible, is_integerish,
)

__all__ = ["TypedPackage", "SubprogramContext", "analyze", "BUILTIN_FUNCTIONS"]

#: Builtin intrinsic functions: name -> (is_shift,) -- shifts are generic in
#: their first (modular) argument, as in Ada's Interfaces package.
BUILTIN_FUNCTIONS = frozenset(["Shift_Left", "Shift_Right"])

_ARITH_OPS = frozenset(["+", "-", "*", "/", "mod"])
_REL_OPS = frozenset(["=", "/=", "<", "<=", ">", ">="])
_LOGIC_OPS = frozenset(["and", "or", "xor"])
_SHORT_OPS = frozenset(["and_then", "or_else"])


class SubprogramContext:
    """Typing context for one subprogram: parameters, locals, loop vars."""

    def __init__(self, typed: "TypedPackage", subprogram: ast.Subprogram):
        self.typed = typed
        self.subprogram = subprogram
        self.vars: Dict[str, Type] = {}
        self.modes: Dict[str, str] = {}
        for p in subprogram.params:
            self.vars[p.name] = typed.type_named(p.type_name)
            self.modes[p.name] = p.mode
        for d in subprogram.decls:
            self.vars[d.name] = typed.type_named(d.type_name)
            self.modes[d.name] = "local"
        self._loop_vars: List[str] = []

    def push_loop_var(self, name: str):
        self._loop_vars.append(name)

    def pop_loop_var(self):
        self._loop_vars.pop()

    def runtime_view(self) -> "SubprogramContext":
        """A view of this context with a private loop-variable stack.

        The table lookups (``vars``, ``modes``, the typed package) are
        shared read-only; ``_loop_vars`` is mutated by every executor that
        walks a For/ForAll, so concurrent interpreters must each push/pop
        on their own stack rather than on the canonical context stored in
        ``TypedPackage._contexts``."""
        view = SubprogramContext.__new__(SubprogramContext)
        view.typed = self.typed
        view.subprogram = self.subprogram
        view.vars = self.vars
        view.modes = self.modes
        view._loop_vars = []
        return view

    def var_type(self, name: str) -> Optional[Type]:
        if name in self._loop_vars:
            return INTEGER
        if name in self.vars:
            return self.vars[name]
        const = self.typed.constants.get(name)
        if const is not None:
            return const[0]
        return None

    def infer(self, expr: ast.Expr) -> Type:
        """Type of a *resolved* expression; raises TypeError_ if untypable."""
        return self.typed._infer(expr, self)


class TypedPackage:
    """A resolved, type-checked package plus its symbol tables."""

    def __init__(self, package: ast.Package):
        self.package = package
        self.types: Dict[str, Type] = {"Integer": INTEGER, "Boolean": BOOLEAN}
        self.constants: Dict[str, Tuple[Type, object]] = {}
        self.proof_functions: Dict[str, ast.ProofFunctionDecl] = {}
        self.proof_rules: List[ast.ProofRuleDecl] = []
        self.signatures: Dict[str, ast.Subprogram] = {}
        self._contexts: Dict[str, SubprogramContext] = {}
        self.errors: List[str] = []

    # -- symbol lookup ---------------------------------------------------

    def type_named(self, name: str) -> Type:
        t = self.types.get(name)
        if t is None:
            self.errors.append(f"unknown type '{name}'")
            return INTEGER
        return t

    def context(self, subprogram_name: str) -> SubprogramContext:
        return self._contexts[subprogram_name]

    def is_array_name(self, name: str, ctx: Optional[SubprogramContext]) -> bool:
        t = None
        if ctx is not None:
            t = ctx.var_type(name)
        if t is None and name in self.constants:
            t = self.constants[name][0]
        return isinstance(t, ArrayType)

    def is_function_name(self, name: str) -> bool:
        if name in BUILTIN_FUNCTIONS or name in self.proof_functions:
            return True
        sig = self.signatures.get(name)
        return sig is not None and sig.is_function

    # -- expression typing -------------------------------------------------

    def _infer(self, expr: ast.Expr, ctx: Optional[SubprogramContext]) -> Type:
        if isinstance(expr, ast.IntLit):
            return UNIV_INT
        if isinstance(expr, ast.BoolLit):
            return BOOLEAN
        if isinstance(expr, ast.Name):
            t = ctx.var_type(expr.id) if ctx else None
            if t is None and expr.id in self.constants:
                t = self.constants[expr.id][0]
            if t is None:
                raise TypeError_(f"unknown name '{expr.id}'")
            return t
        if isinstance(expr, ast.OldExpr):
            t = ctx.var_type(expr.name) if ctx else None
            if t is None:
                raise TypeError_(f"unknown name '{expr.name}~'")
            return t
        if isinstance(expr, ast.ArrayRef):
            base_t = self._infer(expr.base, ctx)
            if not isinstance(base_t, ArrayType):
                raise TypeError_("indexing a non-array value")
            return base_t.elem
        if isinstance(expr, ast.FuncCall):
            return self._infer_call(expr, ctx)
        if isinstance(expr, ast.Conversion):
            target = self.type_named(expr.type_name)
            operand_t = self._infer(expr.operand, ctx)
            if not (is_integerish(target) and is_integerish(operand_t)):
                raise TypeError_(
                    f"conversion {expr.type_name} needs integer operand")
            return target
        if isinstance(expr, ast.UnOp):
            operand_t = self._infer(expr.operand, ctx)
            if expr.op == "not":
                if isinstance(operand_t, BooleanType) or isinstance(operand_t, ModularType):
                    return operand_t
                raise TypeError_("'not' needs a Boolean or modular operand")
            if expr.op == "-":
                if is_integerish(operand_t):
                    return INTEGER if operand_t is UNIV_INT else operand_t
                raise TypeError_("unary '-' needs an integer operand")
            raise TypeError_(f"unknown unary op {expr.op}")
        if isinstance(expr, ast.BinOp):
            return self._infer_binop(expr, ctx)
        if isinstance(expr, ast.ForAll):
            ctx.push_loop_var(expr.var)
            try:
                body_t = self._infer(expr.body, ctx)
            finally:
                ctx.pop_loop_var()
            if not isinstance(body_t, BooleanType):
                raise TypeError_("'for all' body must be Boolean")
            return BOOLEAN
        if isinstance(expr, ast.Aggregate):
            raise TypeError_("aggregate used outside an array context")
        if isinstance(expr, ast.App):
            raise TypeError_("internal: unresolved application survived resolution")
        raise TypeError_(f"cannot type {type(expr).__name__}")

    def _infer_call(self, expr: ast.FuncCall, ctx) -> Type:
        if expr.name in BUILTIN_FUNCTIONS:
            if len(expr.args) != 2:
                raise TypeError_(f"{expr.name} takes 2 arguments")
            arg_t = self._infer(expr.args[0], ctx)
            amount_t = self._infer(expr.args[1], ctx)
            if not isinstance(arg_t, ModularType):
                raise TypeError_(f"{expr.name} needs a modular first argument")
            if not is_integerish(amount_t):
                raise TypeError_(f"{expr.name} shift amount must be integer")
            return arg_t
        proof_fn = self.proof_functions.get(expr.name)
        if proof_fn is not None:
            if len(expr.args) != len(proof_fn.params):
                raise TypeError_(f"proof function {expr.name} arity mismatch")
            for arg, p in zip(expr.args, proof_fn.params):
                at = self._infer(arg, ctx)
                if not compatible(self.type_named(p.type_name), at):
                    raise TypeError_(f"argument type mismatch in {expr.name}")
            return self.type_named(proof_fn.return_type)
        sig = self.signatures.get(expr.name)
        if sig is None or not sig.is_function:
            raise TypeError_(f"'{expr.name}' is not a function")
        if len(expr.args) != len(sig.params):
            raise TypeError_(f"call to {expr.name}: expected {len(sig.params)} "
                             f"arguments, got {len(expr.args)}")
        for arg, p in zip(expr.args, sig.params):
            at = self._infer(arg, ctx)
            if not compatible(self.type_named(p.type_name), at):
                raise TypeError_(
                    f"call to {expr.name}: argument '{p.name}' type mismatch")
        return self.type_named(sig.return_type)

    def _infer_binop(self, expr: ast.BinOp, ctx) -> Type:
        lt = self._infer(expr.left, ctx)
        rt = self._infer(expr.right, ctx)
        op = expr.op
        if op in _ARITH_OPS:
            if not (is_integerish(lt) and is_integerish(rt)):
                raise TypeError_(f"'{op}' needs integer operands")
            if isinstance(lt, ModularType):
                result = lt
            elif isinstance(rt, ModularType):
                result = rt
            else:
                result = INTEGER
            if not compatible(lt, rt):
                raise TypeError_(f"'{op}' operand types {lt.name}/{rt.name} differ")
            return result
        if op in _REL_OPS:
            if not compatible(lt, rt):
                raise TypeError_(
                    f"comparison of incompatible types {lt.name}/{rt.name}")
            if op not in ("=", "/=") and not (is_integerish(lt) and is_integerish(rt)):
                raise TypeError_(f"ordering '{op}' needs integer operands")
            return BOOLEAN
        if op in _SHORT_OPS:
            if isinstance(lt, BooleanType) and isinstance(rt, BooleanType):
                return BOOLEAN
            raise TypeError_(f"'{op}' needs Boolean operands")
        if op in _LOGIC_OPS:
            if isinstance(lt, BooleanType) and isinstance(rt, BooleanType):
                return BOOLEAN
            if isinstance(lt, ModularType) and compatible(lt, rt):
                return lt
            if isinstance(rt, ModularType) and compatible(rt, lt):
                return rt
            raise TypeError_(f"'{op}' needs Boolean or matching modular operands")
        raise TypeError_(f"unknown operator {op}")


# ---------------------------------------------------------------------------
# Constant evaluation
# ---------------------------------------------------------------------------

def _eval_const(expr: ast.Expr, typed: TypedPackage, target: Optional[Type]):
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.BoolLit):
        return expr.value
    if isinstance(expr, ast.UnOp) and expr.op == "-":
        return -_eval_const(expr.operand, typed, target)
    if isinstance(expr, ast.Name):
        const = typed.constants.get(expr.id)
        if const is None:
            raise TypeError_(f"constant initializer references unknown '{expr.id}'")
        return const[1]
    if isinstance(expr, ast.BinOp):
        left = _eval_const(expr.left, typed, None)
        right = _eval_const(expr.right, typed, None)
        ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
               "*": lambda a, b: a * b, "/": lambda a, b: int(a / b),
               "mod": lambda a, b: a % b, "xor": lambda a, b: a ^ b,
               "and": lambda a, b: a & b, "or": lambda a, b: a | b}
        if expr.op not in ops:
            raise TypeError_(f"operator '{expr.op}' not allowed in constants")
        return ops[expr.op](left, right)
    if isinstance(expr, ast.Aggregate):
        if not isinstance(target, ArrayType):
            raise TypeError_("aggregate initializer for a non-array constant")
        items = [_eval_const(e, typed, target.elem) for e in expr.items]
        if expr.others is not None:
            fill = _eval_const(expr.others, typed, target.elem)
            items.extend([fill] * (target.length - len(items)))
        if len(items) != target.length:
            raise TypeError_(
                f"aggregate has {len(items)} components, array needs {target.length}")
        return tuple(items)
    raise TypeError_(f"expression not allowed in a constant: {type(expr).__name__}")


# ---------------------------------------------------------------------------
# Resolution of App nodes
# ---------------------------------------------------------------------------

def _resolve_expr(expr: ast.Expr, typed: TypedPackage,
                  ctx: Optional[SubprogramContext]) -> ast.Expr:
    def resolve(node):
        if isinstance(node, ast.App):
            prefix = node.prefix
            if isinstance(prefix, ast.Name):
                if prefix.id in typed.types:
                    if len(node.args) != 1:
                        typed.errors.append(
                            f"type conversion {prefix.id} takes one operand")
                        return node
                    return ast.Conversion(type_name=prefix.id,
                                          operand=node.args[0])
                if typed.is_function_name(prefix.id):
                    return ast.FuncCall(name=prefix.id, args=node.args)
                if typed.is_array_name(prefix.id, ctx):
                    if len(node.args) != 1:
                        typed.errors.append(
                            f"array '{prefix.id}' indexed with {len(node.args)} "
                            f"indices (use nested indexing)")
                        return node
                    return ast.ArrayRef(base=prefix, index=node.args[0])
                typed.errors.append(f"'{prefix.id}' is neither array nor function")
                return node
            # Nested application: prefix already resolved to an ArrayRef.
            if len(node.args) == 1:
                return ast.ArrayRef(base=prefix, index=node.args[0])
            typed.errors.append("chained application with multiple arguments")
            return node
        return node

    return ast.transform_bottom_up(expr, resolve)


class _BodyChecker:
    """Resolves and checks statements of one subprogram."""

    def __init__(self, typed: TypedPackage, ctx: SubprogramContext):
        self.typed = typed
        self.ctx = ctx

    def error(self, message: str):
        self.typed.errors.append(f"{self.ctx.subprogram.name}: {message}")

    def resolve_expr(self, expr: ast.Expr, want: Optional[Type] = None) -> ast.Expr:
        resolved = _resolve_expr(expr, self.typed, self.ctx)
        if isinstance(resolved, ast.Aggregate):
            if not isinstance(want, ArrayType):
                self.error("aggregate outside array context")
            return resolved
        try:
            actual = self.ctx.infer(resolved)
            if want is not None and not compatible(want, actual):
                self.error(f"expected {want.name}, got {actual.name}")
        except TypeError_ as exc:
            self.error(str(exc))
        return resolved

    def check_stmts(self, stmts: Tuple[ast.Stmt, ...]) -> Tuple[ast.Stmt, ...]:
        return tuple(self.check_stmt(s) for s in stmts)

    def check_stmt(self, stmt: ast.Stmt) -> ast.Stmt:
        if isinstance(stmt, ast.Assign):
            target = _resolve_expr(stmt.target, self.typed, self.ctx)
            if not isinstance(target, (ast.Name, ast.ArrayRef)):
                self.error("assignment target must be a variable or array component")
                want = None
            else:
                if isinstance(target, ast.Name):
                    if (target.id in self.typed.constants
                            and target.id not in self.ctx.vars):
                        self.error(f"assignment to constant '{target.id}'")
                try:
                    want = self.ctx.infer(target)
                except TypeError_ as exc:
                    self.error(str(exc))
                    want = None
            value = self.resolve_expr(stmt.value, want)
            return ast.Assign(target=target, value=value)
        if isinstance(stmt, ast.If):
            branches = tuple(
                (self.resolve_expr(cond, BOOLEAN), self.check_stmts(body))
                for cond, body in stmt.branches)
            return ast.If(branches=branches, else_body=self.check_stmts(stmt.else_body))
        if isinstance(stmt, ast.For):
            lo = self.resolve_expr(stmt.lo, INTEGER)
            hi = self.resolve_expr(stmt.hi, INTEGER)
            self.ctx.push_loop_var(stmt.var)
            try:
                body = self.check_stmts(stmt.body)
            finally:
                self.ctx.pop_loop_var()
            return ast.For(var=stmt.var, lo=lo, hi=hi, body=body, reverse=stmt.reverse)
        if isinstance(stmt, ast.While):
            cond = self.resolve_expr(stmt.cond, BOOLEAN)
            return ast.While(cond=cond, body=self.check_stmts(stmt.body))
        if isinstance(stmt, ast.ProcCall):
            sig = self.typed.signatures.get(stmt.name)
            if sig is None or sig.is_function:
                self.error(f"'{stmt.name}' is not a procedure")
                return stmt
            if len(stmt.args) != len(sig.params):
                self.error(f"call to {stmt.name}: arity mismatch")
            args = []
            for arg, param in zip(stmt.args, sig.params):
                want = self.typed.type_named(param.type_name)
                resolved = self.resolve_expr(arg, want)
                if param.mode != "in" and not isinstance(
                        resolved, (ast.Name, ast.ArrayRef)):
                    self.error(f"call to {stmt.name}: '{param.name}' is an out "
                               f"parameter and needs a variable argument")
                args.append(resolved)
            return ast.ProcCall(name=stmt.name, args=tuple(args))
        if isinstance(stmt, ast.Return):
            sp = self.ctx.subprogram
            if sp.is_function:
                if stmt.value is None:
                    self.error("function return must carry a value")
                    return stmt
                want = self.typed.type_named(sp.return_type)
                return ast.Return(value=self.resolve_expr(stmt.value, want))
            if stmt.value is not None:
                self.error("procedure return must not carry a value")
            return stmt
        if isinstance(stmt, ast.Assert):
            return ast.Assert(expr=self.resolve_expr(stmt.expr, BOOLEAN))
        return stmt


#: resolved subprogram -> the environment key pass 5 produced it under.
_RESOLVED_UNDER = ObjectMemo()


class _Environment:
    """Everything pass 5 reads besides the subprogram itself: the
    resolved declarations (types, constants, proof functions and rules)
    and every subprogram's ``(name, params, return_type)``."""

    def __init__(self, package: ast.Package):
        self.key = (package.decls,
                    tuple((sp.name, sp.params, sp.return_type)
                          for sp in package.subprograms))
        #: id(earlier key) -> whether it equals this one; most reused
        #: subprograms share one earlier key, so one deep comparison
        #: serves them all.
        self._verdicts: Dict[int, bool] = {}

    def resolved(self, sp: ast.Subprogram) -> bool:
        """Did an earlier pass 5 produce ``sp`` under this environment?"""
        earlier = _RESOLVED_UNDER.get(sp)
        if earlier is None:
            return False
        verdict = self._verdicts.get(id(earlier))
        if verdict is None:
            verdict = self._verdicts[id(earlier)] = earlier == self.key
        return verdict


def _check_subprogram(typed: TypedPackage, ctx: SubprogramContext,
                      sp: ast.Subprogram) -> ast.Subprogram:
    """Resolve and check one subprogram's annotations, locals and body."""
    checker = _BodyChecker(typed, ctx)
    pre = tuple(checker.resolve_expr(e, BOOLEAN) for e in sp.pre)
    post = tuple(checker.resolve_expr(e, BOOLEAN) for e in sp.post)
    decls = []
    for d in sp.decls:
        want = typed.type_named(d.type_name)
        init = checker.resolve_expr(d.init, want) if d.init is not None else None
        decls.append(ast.VarDecl(name=d.name, type_name=d.type_name, init=init))
    body = checker.check_stmts(sp.body)
    return dataclasses.replace(
        sp, pre=pre, post=post, decls=tuple(decls), body=body)


def analyze(package: ast.Package) -> TypedPackage:
    """Resolve and type-check ``package``; raises TypeError_ on any error."""
    typed = TypedPackage(package)

    # Pass 1: types.
    for d in package.decls:
        if isinstance(d, ast.ModTypeDecl):
            typed.types[d.name] = ModularType(d.name, modulus=d.modulus)
        elif isinstance(d, ast.RangeTypeDecl):
            typed.types[d.name] = RangeType(d.name, lo=d.lo, hi=d.hi)
        elif isinstance(d, ast.SubtypeDecl):
            typed.types[d.name] = RangeType(d.name, lo=d.lo, hi=d.hi)
        elif isinstance(d, ast.ArrayTypeDecl):
            elem = typed.types.get(d.elem_type)
            if elem is None:
                typed.errors.append(
                    f"array type {d.name}: unknown element type {d.elem_type}")
                elem = INTEGER
            typed.types[d.name] = ArrayType(d.name, lo=d.lo, hi=d.hi, elem=elem)

    # Pass 2: proof functions (before constants/signatures so annotations
    # can call them), subprogram signatures.
    for d in package.decls:
        if isinstance(d, ast.ProofFunctionDecl):
            typed.proof_functions[d.name] = d
    for sp in package.subprograms:
        if sp.name in typed.signatures:
            typed.errors.append(f"duplicate subprogram '{sp.name}'")
        typed.signatures[sp.name] = sp

    # Pass 3: constants (may reference earlier constants).
    for d in package.decls:
        if isinstance(d, ast.ConstDecl):
            ctype = typed.type_named(d.type_name)
            try:
                value = _eval_const(d.value, typed, ctype)
            except TypeError_ as exc:
                typed.errors.append(f"constant {d.name}: {exc}")
                value = 0
            typed.constants[d.name] = (ctype, value)

    # Pass 4: proof rules (package-level annotation expressions are resolved
    # against a pseudo-context with no locals).
    dummy = ast.Subprogram(name="<package>", params=(), return_type=None,
                           decls=(), body=())
    package_ctx = SubprogramContext(typed, dummy)
    new_decls = []
    for d in package.decls:
        if isinstance(d, ast.ProofRuleDecl):
            rule_sp = ast.Subprogram(name=f"<rule {d.name}>", params=d.params,
                                     return_type=None, decls=(), body=())
            rule_ctx = SubprogramContext(typed, rule_sp)
            resolved = _resolve_expr(d.expr, typed, rule_ctx)
            try:
                t = typed._infer(resolved, rule_ctx)
                if not isinstance(t, BooleanType):
                    typed.errors.append(f"proof rule {d.name} is not Boolean")
            except TypeError_ as exc:
                typed.errors.append(f"proof rule {d.name}: {exc}")
            if resolved is not d.expr:
                d = ast.ProofRuleDecl(name=d.name, expr=resolved,
                                      params=d.params)
            typed.proof_rules.append(d)
        new_decls.append(d)
    package = dataclasses.replace(package, decls=tuple(new_decls))
    typed.package = package

    # Pass 5: subprogram bodies (resolve Apps, check statements and
    # annotations), producing a fully resolved package.  A subprogram an
    # earlier pass 5 produced, under an equal environment, comes back
    # unchanged: resolving it again would rebuild an equal object.
    env = _Environment(package)
    new_subprograms = []
    for sp in package.subprograms:
        errors_before = len(typed.errors)
        ctx = SubprogramContext(typed, sp)
        typed._contexts[sp.name] = ctx
        # 'Result' names the function result in postconditions.
        if sp.is_function:
            ctx.vars.setdefault("Result", typed.type_named(sp.return_type))
            ctx.modes.setdefault("Result", "result")
        if env.resolved(sp):
            new_sp = sp
        else:
            new_sp = _check_subprogram(typed, ctx, sp)
            if len(typed.errors) == errors_before:
                _RESOLVED_UNDER.put(new_sp, env.key)
        new_subprograms.append(new_sp)
        ctx.subprogram = new_sp

    typed.package = dataclasses.replace(
        package, subprograms=tuple(new_subprograms))
    # Re-point signatures at the resolved subprograms.
    for sp in typed.package.subprograms:
        typed.signatures[sp.name] = sp

    if typed.errors:
        raise TypeError_("; ".join(typed.errors[:20]) +
                         (f" (+{len(typed.errors) - 20} more)"
                          if len(typed.errors) > 20 else ""))
    return typed
