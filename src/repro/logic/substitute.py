"""Capture-avoiding substitution over hash-consed terms.

Two flavours are provided:

* :func:`substitute` -- rebuilds with the *raw* constructor, preserving the
  exact shape of the input apart from the replaced variables.  This is what
  the weakest-precondition calculus uses, so generated VCs have the honest,
  unsimplified size the paper measures.
* :func:`substitute_simplifying` -- rebuilds through the smart constructors
  (constant folding, select-over-store, ...).  This is what symbolic
  execution uses, where we *want* states to stay in a folded normal form.

Both walk the term with an explicit stack of pending nodes, so
substitution into arbitrarily deep terms is safe on the small fixed C
stacks of scheduler worker threads.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Mapping

from . import builders
from .terms import Term, mk

__all__ = ["substitute", "substitute_simplifying", "rebuild_smart", "rename_bound"]

_fresh_counter = itertools.count(1)


def rebuild_smart(op: str, args, value) -> Term:
    """Rebuild one node through the smart constructors."""
    b = builders
    if op == "and":
        return b.conj(*args)
    if op == "or":
        return b.disj(*args)
    if op == "not":
        return b.neg(args[0])
    if op == "implies":
        return b.implies(args[0], args[1])
    if op == "iff":
        return b.iff(args[0], args[1])
    if op == "ite":
        return b.ite(args[0], args[1], args[2])
    if op == "eq":
        return b.eq(args[0], args[1])
    if op == "lt":
        return b.lt(args[0], args[1])
    if op == "le":
        return b.le(args[0], args[1])
    if op == "add":
        return b.add(*args)
    if op == "mul":
        return b.mul(*args)
    if op == "div":
        return b.divi(args[0], args[1])
    if op == "mod":
        return b.modi(args[0], args[1])
    if op == "xor":
        return b.xor(*args)
    if op == "band":
        return b.band(*args)
    if op == "bor":
        return b.bor(*args)
    if op == "bnot":
        return b.bnot(args[0], value)
    if op == "shl":
        return b.shl(args[0], args[1])
    if op == "shr":
        return b.shr(args[0], args[1])
    if op == "select":
        return b.select(args[0], args[1])
    if op == "store":
        return b.store(args[0], args[1], args[2])
    if op == "apply":
        return b.apply(value, *args)
    if op == "forall":
        return b.forall(value, args[0])
    if op == "exists":
        return b.exists(value, args[0])
    return mk(op, tuple(args), value)


def _rebuild_raw(op: str, args, value) -> Term:
    return mk(op, tuple(args), value)


_BINDERS = ("forall", "exists")
_VISIT, _BUILD, _BIND = 0, 1, 2


def _subst(term: Term, mapping: Mapping[str, Term],
           rebuild: Callable, cache: Dict[int, Term]) -> Term:
    """Substitution driven by an explicit stack of pending steps.

    A ``_VISIT`` step substitutes into one node: at once for a leaf or a
    cached node, else by pushing a ``_BUILD`` (or, under a binder,
    ``_BIND``) step and then its children's visits, rightmost first.  So
    children are visited left to right, each subtree finished before the
    next sibling is looked up in the cache, and :func:`rename_bound`
    draws fresh names in the order of the recursive formulation.
    Results flow through ``values``: a build pops its children's.

    The substitution cache is per (mapping, binder context): descending
    under a quantifier changes the mapping, so the body walk gets a fresh
    cache.  A renamed quantifier's result is cached under the renamed
    term.
    """
    hit = cache.get(term._id)
    if hit is not None:
        return hit
    steps = [(_VISIT, term, mapping, cache)]
    push = steps.append
    values: list = []
    done = values.append
    while steps:
        kind, node, sub, memo = steps.pop()
        if kind == _VISIT:
            hit = memo.get(node._id)
            if hit is not None:
                done(hit)
                continue
            if node.op == "var":
                result = sub.get(node.value, node)
            elif node.op in _BINDERS:
                bound = node.value
                inner = {k: v for k, v in sub.items() if k not in bound}
                if inner:
                    # Capture check: if a replacement mentions a bound
                    # name, rename the bound variable first.
                    replaced_frees = set()
                    for v in inner.values():
                        replaced_frees |= v.free_vars()
                    if not replaced_frees.isdisjoint(bound):
                        node = rename_bound(node, replaced_frees | set(inner))
                        bound = node.value
                        inner = {k: v for k, v in sub.items()
                                 if k not in bound}
                    push((_BIND, node, None, memo))
                    push((_VISIT, node.args[0], inner, {}))
                    continue
                result = node
            elif node.args:
                push((_BUILD, node, None, memo))
                for child in reversed(node.args):
                    push((_VISIT, child, sub, memo))
                continue
            else:
                result = node
        elif kind == _BUILD:
            args = node.args
            new_args = values[-len(args):]
            del values[-len(args):]
            result = node
            for new, old in zip(new_args, args):
                if new is not old:
                    result = rebuild(node.op, tuple(new_args), node.value)
                    break
        else:
            result = rebuild(node.op, (values.pop(),), node.value)
        memo[node._id] = result
        done(result)
    return values[0]


def rename_bound(quant: Term, avoid) -> Term:
    """Alpha-rename the bound variables of a quantifier away from ``avoid``."""
    fresh_map = {}
    new_names = []
    for name in quant.value:
        if name in avoid:
            new = f"{name}~{next(_fresh_counter)}"
            while new in avoid:
                new = f"{name}~{next(_fresh_counter)}"
            fresh_map[name] = builders.var(new)
            new_names.append(new)
        else:
            new_names.append(name)
    body = _subst(quant.args[0], fresh_map, _rebuild_raw, {}) if fresh_map else quant.args[0]
    return mk(quant.op, (body,), tuple(new_names))


def substitute(term: Term, mapping: Mapping[str, Term]) -> Term:
    """Shape-preserving parallel substitution (raw rebuild)."""
    if not mapping:
        return term
    return _subst(term, mapping, _rebuild_raw, {})


def substitute_simplifying(term: Term, mapping: Mapping[str, Term]) -> Term:
    """Substitution that folds through the smart constructors."""
    if not mapping:
        return term
    return _subst(term, mapping, rebuild_smart, {})
