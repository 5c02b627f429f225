"""Lemma generation for the implication proof.

The implication theorem is "structured as a series of lemmas about the
specification architecture" (section 4.1): one lemma per matched element of
the architectural map, ordered so that callees precede callers (a caller's
lemma is then dischargeable by congruence from its callees' lemmas).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from ..logic import Term, eq, forall, var, apply, mk
from ..extract.mapper import ArchitecturalMap
from ..spec import ast as s

__all__ = ["Lemma", "generate_lemmas", "implication_tccs"]


@dataclass(frozen=True)
class Lemma:
    """One implication lemma: the matched elements denote equal values."""

    name: str
    kind: str            # 'table' or 'function'
    original: str
    extracted: str
    statement: Term      # for reporting; foralls over parameters


def _call_order(theory: s.Theory) -> List[str]:
    """Function names in callee-before-caller order."""
    functions = {d.name: d for d in theory.functions()}
    order: List[str] = []
    visiting: Set[str] = set()

    def visit(name: str):
        if name in order or name not in functions:
            return
        if name in visiting:
            return  # recursion: self-call, order irrelevant
        visiting.add(name)
        for node in s.walk_spec(functions[name].body):
            if isinstance(node, s.Call):
                visit(node.fn)
        visiting.discard(name)
        order.append(name)

    for name in functions:
        visit(name)
    return order


def generate_lemmas(original: s.Theory, amap: ArchitecturalMap
                    ) -> List[Lemma]:
    lemmas: List[Lemma] = []
    table_pairs = {p.original: p for p in amap.table_pairs()}
    fn_pairs = {p.original: p for p in amap.function_pairs()}

    for d in original.constants():
        pair = table_pairs.get(d.name)
        if pair is None:
            continue
        statement = eq(var(f"{pair.original}"), var(f"{pair.extracted}~ext"))
        lemmas.append(Lemma(
            name=f"{pair.original}_table_eq", kind="table",
            original=pair.original, extracted=pair.extracted,
            statement=statement))

    functions = {d.name: d for d in original.functions()}
    for name in _call_order(original):
        pair = fn_pairs.get(name)
        if pair is None:
            continue
        fn = functions[name]
        params = tuple(p for p, _ in fn.params)
        lhs = apply(pair.original, *(var(p) for p in params))
        rhs = apply(f"{pair.extracted}~ext", *(var(p) for p in params))
        statement = forall(params, eq(lhs, rhs)) if params else eq(lhs, rhs)
        lemmas.append(Lemma(
            name=f"{pair.original}_eq", kind="function",
            original=pair.original, extracted=pair.extracted,
            statement=statement))
    return lemmas


def implication_tccs(original: s.Theory, extracted: s.Theory,
                     amap: ArchitecturalMap) -> List[Term]:
    """Type-correctness conditions of the implication theorem: for every
    matched function, each original-side parameter value must be acceptable
    to the extracted side (and the extracted result must fit the original
    result type).  Built with the raw constructor so duplicates across the
    many byte-typed signatures surface as *subsumed* TCCs rather than
    folding away."""
    from ..spec.typecheck import _Checker, _static_bounds

    check_orig = _Checker(original)
    check_orig.run()
    check_ext = _Checker(extracted)
    check_ext.run()

    def bounds_of(checker, fname):
        fn = checker.functions[fname]
        params = []
        for pname, ptype in fn.params:
            resolved = _resolve_type(checker, ptype)
            params.append(_static_bounds(resolved))
        result = _static_bounds(_resolve_type(checker, fn.return_type))
        return params, result

    def _resolve_type(checker, t):
        from ..spec.typecheck import _resolve
        return _resolve(t, checker.types)

    tccs: List[Term] = []
    v = var("v?")
    for pair in amap.function_pairs():
        orig_params, orig_result = bounds_of(check_orig, pair.original)
        ext_params, ext_result = bounds_of(check_ext, pair.extracted)
        if len(orig_params) != len(ext_params):
            continue
        for ob, eb in zip(orig_params, ext_params):
            if ob is None or eb is None:
                continue
            guard = mk("and", (mk("le", (mk("int", value=ob[0]), v)),
                               mk("le", (v, mk("int", value=ob[1])))))
            concl = mk("and", (mk("le", (mk("int", value=eb[0]), v)),
                               mk("le", (v, mk("int", value=eb[1])))))
            tccs.append(mk("forall", (mk("implies", (guard, concl)),),
                           value=("v?",)))
        if orig_result is not None and ext_result is not None:
            guard = mk("and", (mk("le", (mk("int", value=ext_result[0]), v)),
                               mk("le", (v, mk("int", value=ext_result[1])))))
            concl = mk("and", (mk("le", (mk("int", value=orig_result[0]), v)),
                               mk("le", (v, mk("int", value=orig_result[1])))))
            tccs.append(mk("forall", (mk("implies", (guard, concl)),),
                           value=("v?",)))
    return tccs
