"""The generator-trampoline substitution: the differential reference for
the explicit-stack walk in :mod:`repro.logic.substitute`.

This is the engine's earlier formulation: a generator per node, driven
by :func:`repro.logic.traversal.run_trampoline`, one ``send`` per node.
Both must return the identical (hash-consed) term and draw fresh bound
names in the same order; :func:`rename_bound` here draws from the
engine's own counter (``repro.logic.substitute._fresh_counter``, read at
call time), so a test that resets it compares names as well as shapes.
"""

import importlib
from typing import Callable, Dict, Mapping

from repro.logic import builders
from repro.logic.substitute import _rebuild_raw, rebuild_smart
from repro.logic.terms import Term, mk
from repro.logic.traversal import run_trampoline

__all__ = ["substitute", "substitute_simplifying", "rename_bound"]

#: The module, not the function ``repro.logic`` exports under its name.
engine = importlib.import_module("repro.logic.substitute")


def _subst(term: Term, mapping: Mapping[str, Term],
           rebuild: Callable, cache: Dict[int, Term]) -> Term:
    hit = cache.get(term._id)
    if hit is not None:
        return hit
    return run_trampoline(_subst_gen(term, mapping, rebuild, cache))


def _subst_gen(term: Term, mapping: Mapping[str, Term],
               rebuild: Callable, cache: Dict[int, Term]):
    hit = cache.get(term._id)
    if hit is not None:
        return hit
    if term.op == "var":
        result = mapping.get(term.value, term)
    elif not term.args and term.op not in ("forall", "exists"):
        result = term
    elif term.op in ("forall", "exists"):
        bound = set(term.value)
        inner = {k: v for k, v in mapping.items() if k not in bound}
        if not inner:
            result = term
        else:
            replaced_frees = set()
            for v in inner.values():
                replaced_frees |= v.free_vars()
            if replaced_frees & bound:
                term = rename_bound(term, replaced_frees | set(inner))
                bound = set(term.value)
                inner = {k: v for k, v in mapping.items() if k not in bound}
            body = yield _subst_gen(term.args[0], inner, rebuild, {})
            result = rebuild(term.op, (body,), term.value)
    else:
        new_args = []
        for a in term.args:
            h = cache.get(a._id)
            if h is None:
                h = yield _subst_gen(a, mapping, rebuild, cache)
            new_args.append(h)
        new_args = tuple(new_args)
        if all(n is o for n, o in zip(new_args, term.args)):
            result = term
        else:
            result = rebuild(term.op, new_args, term.value)
    cache[term._id] = result
    return result


def rename_bound(quant: Term, avoid) -> Term:
    fresh_map = {}
    new_names = []
    for name in quant.value:
        if name in avoid:
            new = f"{name}~{next(engine._fresh_counter)}"
            while new in avoid:
                new = f"{name}~{next(engine._fresh_counter)}"
            fresh_map[name] = builders.var(new)
            new_names.append(new)
        else:
            new_names.append(name)
    body = _subst(quant.args[0], fresh_map, _rebuild_raw, {}) \
        if fresh_map else quant.args[0]
    return mk(quant.op, (body,), tuple(new_names))


def substitute(term: Term, mapping: Mapping[str, Term]) -> Term:
    if not mapping:
        return term
    return _subst(term, mapping, _rebuild_raw, {})


def substitute_simplifying(term: Term, mapping: Mapping[str, Term]) -> Term:
    if not mapping:
        return term
    return _subst(term, mapping, rebuild_smart, {})
