"""Evaluator for MiniPVS theories.

Executable specifications are what make proof-by-evaluation possible: the
FIPS-197 theory is validated against the standard's test vectors by
evaluation, and implication-lemma leaves are discharged by evaluating spec
and extracted-spec functions over whole byte domains.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from . import ast as s

__all__ = ["SpecEvalError", "SpecEvaluator"]

_MAX_STEPS_DEFAULT = 20_000_000


class _Miss:
    pass


_MISS = _Miss()


class SpecEvalError(Exception):
    pass


class SpecEvaluator:
    def __init__(self, theory: s.Theory, max_steps: int = _MAX_STEPS_DEFAULT):
        self.theory = theory
        self.max_steps = max_steps
        self.steps = 0
        self._functions: Dict[str, s.FunDef] = {
            d.name: d for d in theory.functions()}
        self._types: Dict[str, s.SType] = {
            d.name: d.definition for d in theory.decls
            if isinstance(d, s.TypeDef)}
        self._memo: Dict = {}
        self._constants: Dict[str, object] = {}
        for d in theory.constants():
            self._constants[d.name] = self._eval(d.value, {})

    def constant(self, name: str):
        return self._constants[name]

    def params(self, name: str) -> List[Tuple[str, s.SType]]:
        """Function ``name``'s parameters with their types resolved."""
        from .typecheck import _resolve   # typecheck imports this module
        return [(p, _resolve(t, self._types))
                for p, t in self._functions[name].params]

    def call(self, name: str, args: List):
        fn = self._functions.get(name)
        if fn is None:
            raise SpecEvalError(f"no function '{name}' in theory "
                                f"{self.theory.name}")
        if len(args) != len(fn.params):
            raise SpecEvalError(f"{name}: arity mismatch")
        # Pure language: memoize calls (FIPS-style w[i] recurrences are
        # exponential without it).
        key = None
        try:
            key = (name, tuple(args))
            hit = self._memo.get(key, _MISS)
            if hit is not _MISS:
                return hit
        except TypeError:
            key = None
        env = {pname: value for (pname, _), value in zip(fn.params, args)}
        result = self._eval(fn.body, env)
        if key is not None and len(self._memo) < 1_000_000:
            self._memo[key] = result
        return result

    # -- internals --------------------------------------------------------

    def _charge(self):
        self.steps += 1
        if self.steps > self.max_steps:
            raise SpecEvalError("evaluation step budget exceeded")

    def _eval(self, e: s.SExpr, env: Dict[str, object]):
        self._charge()
        if isinstance(e, s.Num):
            return e.value
        if isinstance(e, s.BoolConst):
            return e.value
        if isinstance(e, s.Var):
            if e.name in env:
                return env[e.name]
            if e.name in self._constants:
                return self._constants[e.name]
            raise SpecEvalError(f"unbound name '{e.name}'")
        if isinstance(e, s.TableLit):
            return tuple(e.values)
        if isinstance(e, s.ArrayLit):
            return tuple(self._eval(item, env) for item in e.items)
        if isinstance(e, s.Index):
            arr = self._eval(e.array, env)
            idx = self._eval(e.index, env)
            if not isinstance(arr, tuple):
                raise SpecEvalError("indexing a non-array value")
            if not 0 <= idx < len(arr):
                raise SpecEvalError(f"index {idx} out of bounds "
                                    f"0 .. {len(arr) - 1}")
            return arr[idx]
        if isinstance(e, s.IfExpr):
            if self._eval(e.cond, env):
                return self._eval(e.then, env)
            return self._eval(e.orelse, env)
        if isinstance(e, s.Let):
            value = self._eval(e.value, env)
            inner = dict(env)
            inner[e.var] = value
            return self._eval(e.body, inner)
        if isinstance(e, s.Build):
            inner = dict(env)
            out = []
            for i in range(e.size):
                inner[e.var] = i
                out.append(self._eval(e.body, inner))
            return tuple(out)
        if isinstance(e, s.Bin):
            left = self._eval(e.left, env)
            right = self._eval(e.right, env)
            return self._binop(e.op, left, right)
        if isinstance(e, s.Call):
            args = [self._eval(a, env) for a in e.args]
            return self._call(e.fn, args)
        raise SpecEvalError(f"cannot evaluate {type(e).__name__}")

    def _binop(self, op, left, right):
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "DIV":
            if right == 0:
                raise SpecEvalError("DIV by zero")
            return left // right
        if op == "MOD":
            if right == 0:
                raise SpecEvalError("MOD by zero")
            return left % right
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
        if op == "AND":
            return bool(left) and bool(right)
        if op == "OR":
            return bool(left) or bool(right)
        raise SpecEvalError(f"unknown operator {op}")

    def _call(self, fn, args):
        if fn == "XOR":
            out = 0
            for a in args:
                out ^= a
            return out
        if fn == "BITAND":
            out = args[0]
            for a in args[1:]:
                out &= a
            return out
        if fn == "BITOR":
            out = args[0]
            for a in args[1:]:
                out |= a
            return out
        if fn == "SHL":
            return args[0] << args[1]
        if fn == "SHR":
            return args[0] >> args[1]
        if fn == "NOT":
            return not args[0]
        return self.call(fn, args)
