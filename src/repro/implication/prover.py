"""Discharging implication lemmas.

A table lemma compares constant values outright (``table``).  A function
lemma walks the evidence ladder of :mod:`repro.evidence`; DESIGN.md §23
tables its rungs, their limits and which callers run them.  The
``symbolic`` rung evaluates both function bodies to terms (Build/Let
unrolled, arrays as store chains, matched callee names unified via the
architectural map -- i.e. by appeal to already-proved lemmas, which is
exactly proof by congruence) and compares their normal forms.  The
``sampled`` rung is where our mechanization is weaker than the paper's
interactive PVS proofs (see DESIGN.md).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from functools import partial
from typing import Dict, Iterable, Optional, Tuple

from ..evidence import EXHAUSTIVE_LIMIT, Evidence, ladder
from ..extract.mapper import ArchitecturalMap
from ..logic import (
    Rewriter, Rule, Term, add, apply, band, boolc, bor, conj, default_rules,
    disj, divi, eq, ge, gt, intc, ite, le, lt, modi, mul, ne, neg, select,
    shl, shr, store, sub, var, xor,
)
from ..logic.rules import select_store_split
from ..spec import SpecEvalError, SpecEvaluator
from ..spec import ast as s
from .lemmas import Lemma

__all__ = ["discharge_lemma", "SpecTermError"]

_SAMPLE_TRIALS = 48
_UNROLL_BUDGET = 300_000

_BINARY = {"+": add, "-": sub, "*": mul, "DIV": divi, "MOD": modi,
           "<": lt, "<=": le, ">": gt, ">=": ge, "=": eq, "/=": ne,
           "AND": conj, "OR": disj}
_BUILTINS = {"XOR": xor, "BITAND": band, "BITOR": bor, "SHL": shl,
             "SHR": shr}


class SpecTermError(Exception):
    pass


# ---------------------------------------------------------------------------
# Symbolic evaluation of spec functions into terms
# ---------------------------------------------------------------------------

class _SpecTermBuilder:
    """Evaluates a spec function body to a term over its parameters.

    ``rename`` maps function/table names into a common namespace (the
    original side's names) -- applying it to the extracted side is the
    proof-by-congruence appeal to previously proved lemmas.  Functions not
    in the rename map are inlined (depth-limited)."""

    def __init__(self, theory: s.Theory, rename: Dict[str, str],
                 inline_depth: int = 80):
        self.theory = theory
        self.rename = rename
        self.inline_depth = inline_depth
        self.functions = {d.name: d for d in theory.functions()}
        self.tables = {d.name for d in theory.constants()}
        self.steps = 0
        self._call_memo = {}

    def _charge(self):
        self.steps += 1
        if self.steps > _UNROLL_BUDGET:
            raise SpecTermError("symbolic spec budget exceeded")

    def function_term(self, fname: str, fixed=None) -> Term:
        fn = self.functions[fname]
        env = {p: intc(fixed[p]) if fixed and p in fixed else var(f"arg{i}")
               for i, (p, _) in enumerate(fn.params)}
        return self._eval(fn.body, env, depth=0)

    def _eval(self, e: s.SExpr, env: Dict[str, Term], depth: int) -> Term:
        self._charge()
        if isinstance(e, s.Num):
            return intc(e.value)
        if isinstance(e, s.BoolConst):
            return boolc(e.value)
        if isinstance(e, s.Var):
            if e.name in env:
                return env[e.name]
            if e.name in self.tables:
                return var(self.rename.get(e.name, e.name))
            raise SpecTermError(f"unbound '{e.name}'")
        if isinstance(e, s.TableLit):
            base: Term = var("#undef")
            for i, value in enumerate(e.values):
                base = store(base, intc(i), intc(value))
            return base
        if isinstance(e, s.ArrayLit):
            base = var("#undef")
            for i, item in enumerate(e.items):
                base = store(base, intc(i), self._eval(item, env, depth))
            return base
        if isinstance(e, s.Build):
            base = var("#undef")
            inner = dict(env)
            for i in range(e.size):
                inner[e.var] = intc(i)
                base = store(base, intc(i), self._eval(e.body, inner, depth))
            return base
        if isinstance(e, s.Index):
            if isinstance(e.array, s.Var) and e.array.name in self.tables \
                    and e.array.name not in env:
                name = self.rename.get(e.array.name, e.array.name)
                return apply(name, self._eval(e.index, env, depth))
            arr = self._eval(e.array, env, depth)
            return select(arr, self._eval(e.index, env, depth))
        if isinstance(e, s.IfExpr):
            cond = self._eval(e.cond, env, depth)
            # Fold decided conditions before building branches: this is what
            # bottoms out recursive definitions applied at literal arguments.
            if cond.is_true:
                return self._eval(e.then, env, depth)
            if cond.is_false:
                return self._eval(e.orelse, env, depth)
            return ite(cond,
                       self._eval(e.then, env, depth),
                       self._eval(e.orelse, env, depth))
        if isinstance(e, s.Let):
            inner = dict(env)
            inner[e.var] = self._eval(e.value, env, depth)
            return self._eval(e.body, inner, depth)
        if isinstance(e, s.Bin):
            left = self._eval(e.left, env, depth)
            right = self._eval(e.right, env, depth)
            return _BINARY[e.op](left, right)
        if isinstance(e, s.Call):
            args = [self._eval(a, env, depth) for a in e.args]
            if e.fn in _BUILTINS:
                return _BUILTINS[e.fn](*args)
            if e.fn == "NOT":
                return neg(args[0])
            if e.fn in self.rename:
                return apply(self.rename[e.fn], *args)
            callee = self.functions.get(e.fn)
            if callee is None:
                raise SpecTermError(f"unknown function '{e.fn}'")
            if depth >= self.inline_depth:
                if callee.recursive:
                    raise SpecTermError(
                        f"recursion in {e.fn} did not bottom out")
                return apply(e.fn, *args)
            inner = {p: a for (p, _), a in zip(callee.params, args)}
            memo_key = None
            if all(not a.free_vars() or a.op == "var" for a in args):
                memo_key = (e.fn, tuple(a._id for a in args))
                hit = self._call_memo.get(memo_key)
                if hit is not None:
                    return hit
            result = self._eval(callee.body, inner, depth + 1)
            if memo_key is not None:
                self._call_memo[memo_key] = result
            return result
        raise SpecTermError(f"cannot build term for {type(e).__name__}")


@functools.lru_cache(maxsize=None)
def _normalizer() -> Rewriter:
    return Rewriter(default_rules() + [
        Rule("select-store-split", "arrays", select_store_split)])


# ---------------------------------------------------------------------------
# Domain enumeration / sampling
# ---------------------------------------------------------------------------

_SWEEP_LIMIT = 16  # max cases for a small-parameter sweep
_SWEEP_PARAM_MAX = 31


def _small_param_sweep(params):
    """Bindings fixing every tiny scalar parameter to each of its values
    (so, e.g., a round-number parameter is swept 0..10 while the key stays
    symbolic).  Returns [{}] when no such parameter exists."""
    names = [name for name, t in params if isinstance(t, s.SubrangeType)
             and t.hi <= _SWEEP_PARAM_MAX]
    ranges = [range(t.hi + 1) for name, t in params if name in names]
    if not names or math.prod(map(len, ranges)) > _SWEEP_LIMIT:
        return [{}]
    return [dict(zip(names, values))
            for values in itertools.product(*ranges)]


def _domain(types) -> Optional[list]:
    """Each parameter's values, when the whole domain is finite and has
    at most :data:`~repro.evidence.EXHAUSTIVE_LIMIT` inputs."""
    ranges = []
    for t in types:
        if isinstance(t, s.SubrangeType):
            ranges.append(range(t.hi + 1))
        elif isinstance(t, s.BoolType):
            ranges.append((False, True))
        else:
            return None
    return None if math.prod(map(len, ranges)) > EXHAUSTIVE_LIMIT \
        else ranges


def _sample(t, rng: random.Random):
    if isinstance(t, s.SubrangeType):
        return rng.randint(0, t.hi)
    if isinstance(t, s.BoolType):
        return bool(rng.getrandbits(1))
    if isinstance(t, s.NatType):
        return rng.randint(0, 2**20)
    if isinstance(t, s.ArrayTypeS):
        return tuple(_sample(t.elem, rng) for _ in range(t.size))
    raise SpecTermError(f"cannot sample {t!r}")


# ---------------------------------------------------------------------------
# Lemma discharge
# ---------------------------------------------------------------------------

def _symbolic(lemma: Lemma, original: s.Theory, extracted: s.Theory,
              amap: ArchitecturalMap, sweep) -> Optional[Evidence]:
    """Symbolic comparison with congruence renaming: matched elements
    stay as applications on both sides (appealing to their
    already-proved lemmas); unmatched definitions are expanded.  Gives
    up when the normal forms differ or the terms cannot be built."""
    rename_ext = {p.extracted: p.original for p in amap.pairs}
    rename_orig = {p.original: p.original for p in amap.pairs}
    # The lemma under proof must not appeal to itself.
    rename_ext.pop(lemma.extracted, None)
    rename_orig.pop(lemma.original, None)
    orig_builder = _SpecTermBuilder(original, rename=rename_orig)
    ext_builder = _SpecTermBuilder(extracted, rename=rename_ext)
    normalize = _normalizer().normalize
    try:
        for fixed in sweep:
            orig_term = orig_builder.function_term(lemma.original, fixed)
            ext_term = ext_builder.function_term(lemma.extracted, fixed)
            if normalize(orig_term) is not normalize(ext_term):
                return None
    except SpecTermError:
        return None
    cases = "" if len(sweep) == 1 else f" ({len(sweep)} cases)"
    return Evidence("symbolic", True,
                    "normal forms identical after definition expansion "
                    f"and congruence renaming{cases}")


def _evaluated(level: str, lemma: Lemma, orig_eval: SpecEvaluator,
               ext_eval: SpecEvaluator, inputs: Iterable,
               agreed: str) -> Evidence:
    """Both sides evaluated on each of ``inputs``: refuted by the first
    fault or difference, else ``agreed``."""
    for args in inputs:
        args = list(args)
        try:
            left = orig_eval.call(lemma.original, args)
            right = ext_eval.call(lemma.extracted, args)
        except SpecEvalError as exc:
            return Evidence(level, False,
                            f"evaluation fault at {args}: {exc}")
        if left != right:
            return Evidence(level, False,
                            f"counterexample at {args}: {left} /= {right}")
    return Evidence(level, True, agreed)


def _exhaustive(lemma, orig_eval, ext_eval, types) -> Optional[Evidence]:
    ranges = _domain(types)
    if ranges is None:
        return None
    return _evaluated("exhaustive", lemma, orig_eval, ext_eval,
                      itertools.product(*ranges),
                      f"all {math.prod(map(len, ranges))} inputs agree")


def _sampled(lemma, orig_eval, ext_eval, types, seed) -> Evidence:
    rng = random.Random(seed)
    return _evaluated("sampled", lemma, orig_eval, ext_eval,
                      ([_sample(t, rng) for t in types]
                       for _ in range(_SAMPLE_TRIALS)),
                      f"{_SAMPLE_TRIALS} random inputs agree")


def discharge_lemma(lemma: Lemma,
                    original: s.Theory, extracted: s.Theory,
                    amap: ArchitecturalMap,
                    orig_eval: SpecEvaluator, ext_eval: SpecEvaluator,
                    seed: int = 20090701) -> Tuple[Evidence, int]:
    """The lemma's evidence and its manual proof steps: 2 to expand both
    sides' definitions, plus one per swept case of a symbolic proof, 1
    for an exhaustive or 2 for a sampled one; none if refuted."""
    if lemma.kind == "table":
        left = orig_eval.constant(lemma.original)
        right = ext_eval.constant(lemma.extracted)
        return Evidence("table", left == right,
                        f"{len(left)} entries compared"), 0

    params = orig_eval.params(lemma.original)
    types = [t for _, t in params]
    sweep = _small_param_sweep(params)
    evidence = ladder((
        partial(_symbolic, lemma, original, extracted, amap, sweep),
        partial(_exhaustive, lemma, orig_eval, ext_eval, types),
        partial(_sampled, lemma, orig_eval, ext_eval, types, seed)))
    steps = {"symbolic": len(sweep) if len(sweep) > 1 else 0,
             "exhaustive": 1, "sampled": 2}
    return evidence, (2 + steps[evidence.level]) if evidence.holds else 0
