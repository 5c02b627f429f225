"""Conversion of logic terms (symbolic summaries) into MiniPVS expressions.

The extractor summarizes a MiniAda subprogram symbolically and converts the
resulting term over the input variables into a specification expression.
Applications of other subprograms stay as applications -- that is the
*direct mapping* that preserves the architecture.
"""

from __future__ import annotations

from typing import Dict

from ..logic import Term, intc
from ..spec import ast as s

__all__ = ["TermConversionError", "term_to_spec"]


class TermConversionError(Exception):
    pass


def _split_negations(args):
    positive, negative = [], []
    for a in args:
        if a.op == "mul" and len(a.args) == 2 and \
                a.args[0].op == "int" and a.args[0].value == -1:
            negative.append(a.args[1])
        elif a.op == "int" and a.value < 0:
            negative.append(intc(-a.value))
        else:
            positive.append(a)
    return positive, negative


#: A shared subterm is LET-bound when it has at least this many DAG nodes.
_LET_MIN_NODES = 6


def _shared_nodes(terms):
    """Subterms with >= 2 parents worth LET-binding, in dependency order."""
    parents: Dict[int, int] = {}
    sizes: Dict[int, int] = {}
    order = []
    seen = set()
    for t in terms:
        for node in t.iter_dag():
            if node._id not in seen:
                seen.add(node._id)
                order.append(node)
                sizes[node._id] = 1 + sum(sizes[c._id] for c in node.args)
            for child in node.args:
                parents[child._id] = parents.get(child._id, 0) + 1
    for t in terms:
        parents[t._id] = parents.get(t._id, 0) + 1
    return [node for node in order
            if parents.get(node._id, 0) >= 2
            and sizes[node._id] >= _LET_MIN_NODES
            and node.op not in ("int", "bool", "var", "forall", "exists")]


def terms_to_spec(terms, constants=frozenset()):
    """Convert several terms jointly, LET-binding shared subterms so the
    printed specification stays linear in the DAG (an extracted function
    whose tree form would be gigabytes prints as a LET chain instead).

    Returns ``(bindings, exprs)`` where ``bindings`` is a list of
    ``(name, SExpr)`` in dependency order."""
    cache: Dict[int, s.SExpr] = {}
    bindings = []
    for i, node in enumerate(_shared_nodes(terms)):
        name = f"L{i + 1}"
        value = _convert_raw(node, constants, cache)
        cache[node._id] = s.Var(name=name)
        bindings.append((name, value))
    exprs = [_convert(t, constants, cache) for t in terms]
    return bindings, exprs


def wrap_lets(bindings, body: s.SExpr) -> s.SExpr:
    for name, value in reversed(bindings):
        body = s.Let(var=name, value=value, body=body)
    return body


def term_to_spec(term: Term, constants=frozenset()) -> s.SExpr:
    """Convert a term to a spec expression.  ``constants`` names table
    constants so ``apply(Table, i)`` becomes ``Table[i]``.  Shared subterms
    become LET bindings."""
    bindings, (expr,) = terms_to_spec([term], constants)
    return wrap_lets(bindings, expr)


def _convert(term: Term, constants, cache: Dict[int, s.SExpr]) -> s.SExpr:
    hit = cache.get(term._id)
    if hit is not None:
        return hit
    result = _convert_raw(term, constants, cache)
    cache[term._id] = result
    return result


def _chain(op: str, items):
    out = items[0]
    for item in items[1:]:
        out = s.Bin(op=op, left=out, right=item)
    return out


def _convert_raw(term: Term, constants, cache) -> s.SExpr:
    op = term.op
    if op == "int":
        if term.value < 0:
            return s.Bin(op="-", left=s.Num(value=0),
                         right=s.Num(value=-term.value))
        return s.Num(value=term.value)
    if op == "bool":
        return s.BoolConst(value=term.value)
    if op == "var":
        name = term.value
        if "#" in name or "%" in name or "@" in name:
            raise TermConversionError(
                f"symbolic artifact variable '{name}' reached extraction "
                f"(uninitialized read or havoc)")
        return s.Var(name=name)
    if op == "add":
        positive, negative = _split_negations(term.args)
        pos = [_convert(a, constants, cache) for a in positive] or \
            [s.Num(value=0)]
        out = _chain("+", pos)
        for n in negative:
            out = s.Bin(op="-", left=out, right=_convert(n, constants, cache))
        return out
    if op == "mul":
        return _chain("*", [_convert(a, constants, cache)
                            for a in term.args])
    if op == "div":
        return s.Bin(op="DIV", left=_convert(term.args[0], constants, cache),
                     right=_convert(term.args[1], constants, cache))
    if op == "mod":
        return s.Bin(op="MOD", left=_convert(term.args[0], constants, cache),
                     right=_convert(term.args[1], constants, cache))
    if op in ("xor", "band", "bor"):
        fn = {"xor": "XOR", "band": "BITAND", "bor": "BITOR"}[op]
        return s.Call(fn=fn, args=tuple(_convert(a, constants, cache)
                                        for a in term.args))
    if op == "bnot":
        width = term.value
        mask = (1 << width) - 1
        return s.Call(fn="XOR", args=(
            _convert(term.args[0], constants, cache), s.Num(value=mask)))
    if op == "shl":
        return s.Call(fn="SHL", args=(
            _convert(term.args[0], constants, cache),
            _convert(term.args[1], constants, cache)))
    if op == "shr":
        return s.Call(fn="SHR", args=(
            _convert(term.args[0], constants, cache),
            _convert(term.args[1], constants, cache)))
    if op == "select":
        return s.Index(array=_convert(term.args[0], constants, cache),
                       index=_convert(term.args[1], constants, cache))
    if op == "apply":
        if term.value in constants:
            return s.Index(array=s.Var(name=term.value),
                           index=_convert(term.args[0], constants, cache))
        return s.Call(fn=term.value,
                      args=tuple(_convert(a, constants, cache)
                                 for a in term.args))
    if op == "ite":
        return s.IfExpr(cond=_convert(term.args[0], constants, cache),
                        then=_convert(term.args[1], constants, cache),
                        orelse=_convert(term.args[2], constants, cache))
    if op == "eq":
        return s.Bin(op="=", left=_convert(term.args[0], constants, cache),
                     right=_convert(term.args[1], constants, cache))
    if op == "lt":
        return s.Bin(op="<", left=_convert(term.args[0], constants, cache),
                     right=_convert(term.args[1], constants, cache))
    if op == "le":
        return s.Bin(op="<=", left=_convert(term.args[0], constants, cache),
                     right=_convert(term.args[1], constants, cache))
    if op == "not":
        return s.Call(fn="NOT",
                      args=(_convert(term.args[0], constants, cache),))
    if op == "and":
        return _chain("AND", [_convert(a, constants, cache)
                              for a in term.args])
    if op == "or":
        return _chain("OR", [_convert(a, constants, cache)
                             for a in term.args])
    if op == "implies":
        left = _convert(term.args[0], constants, cache)
        right = _convert(term.args[1], constants, cache)
        return s.Bin(op="OR", left=s.Call(fn="NOT", args=(left,)),
                     right=right)
    if op == "store":
        # A fully defined store chain over an uninitialized base is an
        # element-wise array value (arises for locally built arrays passed
        # to calls).
        elements: Dict[int, Term] = {}
        node = term
        while node.op == "store":
            base, idx, value = node.args
            if idx.op != "int":
                raise TermConversionError("store with symbolic index")
            elements.setdefault(idx.value, value)
            node = base
        root = node
        while root.op == "select":
            root = root.args[0]
        if not (root.op == "var" and "#" in str(root.value)):
            raise TermConversionError("partial array update reached "
                                      "conversion")
        size = max(elements) + 1
        if set(elements) != set(range(size)):
            raise TermConversionError("array not fully defined")
        return s.ArrayLit(items=tuple(
            _convert(elements[i], constants, cache) for i in range(size)))
    raise TermConversionError(f"cannot convert term op '{op}'")
