"""Discharging implication lemmas.

Strategies, strongest first (the evidence level is recorded per lemma):

``table``        table lemmas compare constant values outright (a proof);
``symbolic``     both function bodies are symbolically evaluated to terms
                 (Build/Let unrolled, arrays as store chains, matched
                 callee names unified via the architectural map -- i.e.
                 by appeal to already-proved lemmas, which is exactly
                 proof by congruence) and the normal forms are identical;
``exhaustive``   the parameter domain is finite and small: both sides are
                 evaluated on every input (proof by evaluation);
``sampled``      random inputs only -- honest evidence, not proof; this is
                 where our mechanization is weaker than the paper's
                 interactive PVS proofs (see DESIGN.md).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..extract.mapper import ArchitecturalMap
from ..logic import (
    Rewriter, Rule, Term, default_rules, eq, intc, ite, select, store, var,
)
from ..logic.rules import select_store_split
from ..spec import SpecEvalError, SpecEvaluator
from ..spec import ast as s
from .lemmas import Lemma

__all__ = ["LemmaOutcome", "discharge_lemma", "SpecTermError"]

_EXHAUSTIVE_LIMIT = 1 << 16
_SAMPLE_TRIALS = 48
_UNROLL_BUDGET = 300_000


class SpecTermError(Exception):
    pass


@dataclass(frozen=True)
class LemmaOutcome:
    lemma: Lemma
    proved: bool
    evidence: str    # 'table', 'symbolic', 'exhaustive', 'sampled'
    is_proof: bool   # sampled evidence is not a proof
    detail: str = ""
    manual_steps: int = 0


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
        env = {}
        for i, (p, _) in enumerate(fn.params):
            if fixed and p in fixed:
                env[p] = intc(fixed[p])
            else:
                env[p] = var(f"arg{i}")
        return self._eval(fn.body, env, depth=0)

    def _eval(self, e: s.SExpr, env: Dict[str, Term], depth: int) -> Term:
        self._charge()
        from ..logic import (add, band, bor, conj, disj, divi, ge, gt, le,
                             lt, modi, mul, ne, neg, shl, shr, sub, xor,
                             apply, boolc)
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
            ops = {"+": add, "-": sub, "*": mul, "DIV": divi, "MOD": modi,
                   "<": lt, "<=": le, ">": gt, ">=": ge, "=": eq,
                   "/=": ne, "AND": conj, "OR": disj}
            return ops[e.op](left, right)
        if isinstance(e, s.Call):
            builtins = {"XOR": xor, "BITAND": band, "BITOR": bor,
                        "SHL": shl, "SHR": shr}
            args = [self._eval(a, env, depth) for a in e.args]
            if e.fn in builtins:
                return builtins[e.fn](*args)
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
            result = self._eval(callee.body, inner,
                                depth + (1 if not callee.recursive else 1))
            if memo_key is not None:
                self._call_memo[memo_key] = result
            return result
        raise SpecTermError(f"cannot build term for {type(e).__name__}")


_normalizer = None


def _normalize(term: Term) -> Term:
    global _normalizer
    if _normalizer is None:
        _normalizer = Rewriter(
            default_rules()
            + [Rule("select-store-split", "arrays", select_store_split)])
    return _normalizer.normalize(term)


# ---------------------------------------------------------------------------
# Domain enumeration / sampling
# ---------------------------------------------------------------------------

_SWEEP_LIMIT = 16  # max cases for a small-parameter sweep
_SWEEP_PARAM_MAX = 31


def _small_param_sweep(theory: s.Theory, fname: str, param_types):
    """Bindings fixing every tiny scalar parameter to each of its values
    (so, e.g., a round-number parameter is swept 0..10 while the key stays
    symbolic).  Returns [{}] when no such parameter exists."""
    from ..spec.typecheck import _Checker
    checker = _Checker(theory)
    checker.run()
    fn = checker.functions[fname]
    names = [p for p, _ in fn.params]
    candidates = []
    for name, t in zip(names, param_types):
        if isinstance(t, s.SubrangeType) and t.hi <= _SWEEP_PARAM_MAX:
            candidates.append((name, t.hi))
    if not candidates:
        return [{}]
    total = 1
    for _, hi in candidates:
        total *= hi + 1
    if total > _SWEEP_LIMIT:
        return [{}]
    sweeps = [{}]
    for name, hi in candidates:
        sweeps = [dict(b, **{name: v}) for b in sweeps
                  for v in range(hi + 1)]
    return sweeps


def _resolved_param_types(theory: s.Theory, fname: str):
    from ..spec.typecheck import _Checker, _resolve
    checker = _Checker(theory)
    checker.run()
    fn = checker.functions[fname]
    return [_resolve(t, checker.types) for _, t in fn.params]


def _domain_size(types) -> Optional[int]:
    total = 1
    for t in types:
        if isinstance(t, s.SubrangeType):
            total *= t.hi + 1
        elif isinstance(t, s.BoolType):
            total *= 2
        else:
            return None
        if total > _EXHAUSTIVE_LIMIT:
            return None
    return total


def _enumerate(types):
    ranges = []
    for t in types:
        if isinstance(t, s.SubrangeType):
            ranges.append(range(t.hi + 1))
        else:
            ranges.append((False, True))
    return itertools.product(*ranges)


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

def discharge_lemma(lemma: Lemma,
                    original: s.Theory, extracted: s.Theory,
                    amap: ArchitecturalMap,
                    orig_eval: SpecEvaluator, ext_eval: SpecEvaluator,
                    seed: int = 20090701) -> LemmaOutcome:
    if lemma.kind == "table":
        left = orig_eval.constant(lemma.original)
        right = ext_eval.constant(lemma.extracted)
        return LemmaOutcome(
            lemma=lemma, proved=left == right, evidence="table",
            is_proof=True,
            detail=f"{len(left)} entries compared")

    # Function lemma.  1) symbolic comparison with congruence renaming:
    # matched elements stay as applications on both sides (appealing to
    # their already-proved lemmas); unmatched definitions are expanded.
    rename_ext = {p.extracted: p.original for p in amap.pairs}
    rename_orig = {p.original: p.original for p in amap.pairs}
    # The lemma under proof must not appeal to itself.
    rename_ext.pop(lemma.extracted, None)
    rename_orig.pop(lemma.original, None)
    manual_steps = 0
    param_types = _resolved_param_types(original, lemma.original)
    sweep = _small_param_sweep(original, lemma.original, param_types)
    try:
        orig_builder = _SpecTermBuilder(original, rename=rename_orig)
        ext_builder = _SpecTermBuilder(extracted, rename=rename_ext)
        manual_steps = 2  # expand definitions on both sides
        proved_symbolically = True
        for fixed in sweep:
            orig_term = orig_builder.function_term(lemma.original, fixed)
            ext_term = ext_builder.function_term(lemma.extracted, fixed)
            if _normalize(orig_term) is not _normalize(ext_term):
                proved_symbolically = False
                break
        if proved_symbolically:
            cases = "" if len(sweep) == 1 else f" ({len(sweep)} cases)"
            return LemmaOutcome(
                lemma=lemma, proved=True, evidence="symbolic", is_proof=True,
                detail="normal forms identical after definition expansion "
                       f"and congruence renaming{cases}",
                manual_steps=manual_steps + (len(sweep) if len(sweep) > 1
                                             else 0))
    except SpecTermError:
        pass

    # 2) exhaustive evaluation over small finite domains.
    size = _domain_size(param_types)
    if size is not None:
        for args in _enumerate(param_types):
            try:
                left = orig_eval.call(lemma.original, list(args))
                right = ext_eval.call(lemma.extracted, list(args))
            except SpecEvalError as exc:
                return LemmaOutcome(
                    lemma=lemma, proved=False, evidence="exhaustive",
                    is_proof=True, detail=f"evaluation fault at {args}: {exc}")
            if left != right:
                return LemmaOutcome(
                    lemma=lemma, proved=False, evidence="exhaustive",
                    is_proof=True,
                    detail=f"counterexample at {args}: {left} /= {right}")
        return LemmaOutcome(
            lemma=lemma, proved=True, evidence="exhaustive", is_proof=True,
            detail=f"all {size} inputs agree", manual_steps=manual_steps + 1)

    # 3) sampled evaluation.
    rng = random.Random(seed)
    for trial in range(_SAMPLE_TRIALS):
        args = [_sample(t, rng) for t in param_types]
        try:
            left = orig_eval.call(lemma.original, list(args))
            right = ext_eval.call(lemma.extracted, list(args))
        except SpecEvalError as exc:
            return LemmaOutcome(
                lemma=lemma, proved=False, evidence="sampled", is_proof=False,
                detail=f"evaluation fault: {exc}")
        if left != right:
            return LemmaOutcome(
                lemma=lemma, proved=False, evidence="sampled", is_proof=False,
                detail=f"counterexample on trial {trial + 1}")
    return LemmaOutcome(
        lemma=lemma, proved=True, evidence="sampled", is_proof=False,
        detail=f"{_SAMPLE_TRIALS} random inputs agree",
        manual_steps=manual_steps + 2)
