"""Smart constructors for :class:`repro.logic.terms.Term`.

These perform *light, local* normalization at construction time -- constant
folding, flattening of associative operators, canonical argument ordering for
commutative operators, unit/annihilator laws.  Deeper simplification (the
SPARK-Simplifier substitute) lives in :mod:`repro.logic.rewriter` /
:mod:`repro.logic.rules`.

Keeping construction-time normalization *light* is deliberate: the paper's
headline phenomenon is the size of *generated* verification conditions before
simplification (figure 2(d) vs 2(e)), so the VC generator must not secretly
simplify its output.  The constructors here only do what the SPARK Examiner's
own term builder does: fold literals and normalize trivial units.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from .canon import fingerprint
from .terms import Term, mk

__all__ = [
    "TRUE", "FALSE", "intc", "boolc", "var", "conj", "disj", "neg",
    "implies", "iff", "ite", "eq", "ne", "lt", "le", "gt", "ge",
    "add", "sub", "mul", "divi", "modi", "xor", "band", "bor", "bnot",
    "shl", "shr", "select", "store", "apply", "forall", "exists",
]

TRUE = mk("bool", value=True)
FALSE = mk("bool", value=False)


def intc(n: int) -> Term:
    """Integer literal."""
    return mk("int", value=int(n))


def boolc(b: bool) -> Term:
    return TRUE if b else FALSE


def var(name: str) -> Term:
    """Logical variable (program variable, bound variable, or fresh symbol)."""
    return mk("var", value=name)


def _sorted_args(args: Sequence[Term]) -> Tuple[Term, ...]:
    # Canonical order must not depend on interning ids: ids encode the
    # process's construction history, and two processes reaching the same
    # logical term along different paths (a pool worker unpickling payloads
    # vs. the parent generating VCs) would otherwise hold different
    # argument orders -- and the provers' search order with them.  The
    # structural Merkle digest is history-free and memoized per term.
    return tuple(sorted(args, key=fingerprint))


def _flatten(op: str, args: Iterable[Term]) -> list:
    out = []
    for a in args:
        if a.op == op:
            out.extend(a.args)
        else:
            out.append(a)
    return out


# ---------------------------------------------------------------------------
# Boolean connectives
# ---------------------------------------------------------------------------

def conj(*args: Term) -> Term:
    """N-ary conjunction: flattens, drops ``true``, short-circuits ``false``."""
    flat = _flatten("and", args)
    kept = []
    seen = set()
    for a in flat:
        if a.is_true:
            continue
        if a.is_false:
            return FALSE
        if a._id not in seen:
            seen.add(a._id)
            kept.append(a)
    if not kept:
        return TRUE
    if len(kept) == 1:
        return kept[0]
    return mk("and", _sorted_args(kept))


def disj(*args: Term) -> Term:
    flat = _flatten("or", args)
    kept = []
    seen = set()
    for a in flat:
        if a.is_false:
            continue
        if a.is_true:
            return TRUE
        if a._id not in seen:
            seen.add(a._id)
            kept.append(a)
    if not kept:
        return FALSE
    if len(kept) == 1:
        return kept[0]
    return mk("or", _sorted_args(kept))


def neg(a: Term) -> Term:
    if a.is_true:
        return FALSE
    if a.is_false:
        return TRUE
    if a.op == "not":
        return a.args[0]
    return mk("not", (a,))


def implies(a: Term, b: Term) -> Term:
    if a.is_true:
        return b
    if a.is_false or b.is_true:
        return TRUE
    if b.is_false:
        return neg(a)
    if a is b:
        return TRUE
    return mk("implies", (a, b))


def iff(a: Term, b: Term) -> Term:
    if a is b:
        return TRUE
    if a.is_true:
        return b
    if b.is_true:
        return a
    if a.is_false:
        return neg(b)
    if b.is_false:
        return neg(a)
    return mk("iff", _sorted_args((a, b)))


def ite(c: Term, t: Term, e: Term) -> Term:
    if c.is_true:
        return t
    if c.is_false:
        return e
    if t is e:
        return t
    return mk("ite", (c, t, e))


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------

def eq(a: Term, b: Term) -> Term:
    if a is b:
        return TRUE
    if a.is_literal and b.is_literal:
        return boolc(a.value == b.value)
    return mk("eq", _sorted_args((a, b)))


def ne(a: Term, b: Term) -> Term:
    return neg(eq(a, b))


def lt(a: Term, b: Term) -> Term:
    if a is b:
        return FALSE
    if a.op == "int" and b.op == "int":
        return boolc(a.value < b.value)
    return mk("lt", (a, b))


def le(a: Term, b: Term) -> Term:
    if a is b:
        return TRUE
    if a.op == "int" and b.op == "int":
        return boolc(a.value <= b.value)
    return mk("le", (a, b))


def gt(a: Term, b: Term) -> Term:
    return lt(b, a)


def ge(a: Term, b: Term) -> Term:
    return le(b, a)


# ---------------------------------------------------------------------------
# Arithmetic (integers; division/modulo are Python floor semantics, which
# agree with Ada semantics on the nonnegative operands MiniAda programs use)
# ---------------------------------------------------------------------------

def add(*args: Term) -> Term:
    flat = _flatten("add", args)
    const = 0
    rest = []
    for a in flat:
        if a.op == "int":
            const += a.value
        else:
            rest.append(a)
    if const != 0 or not rest:
        rest.append(intc(const))
    if len(rest) == 1:
        return rest[0]
    return mk("add", _sorted_args(rest))


def mul(*args: Term) -> Term:
    flat = _flatten("mul", args)
    const = 1
    rest = []
    for a in flat:
        if a.op == "int":
            const *= a.value
        else:
            rest.append(a)
    if const == 0:
        return intc(0)
    if const != 1 or not rest:
        rest.append(intc(const))
    if len(rest) == 1:
        return rest[0]
    return mk("mul", _sorted_args(rest))


def sub(a: Term, b: Term) -> Term:
    """Normalized to ``a + (-1)*b`` so sums stay in one associative class."""
    return add(a, mul(intc(-1), b))


def divi(a: Term, b: Term) -> Term:
    if a.op == "int" and b.op == "int" and b.value != 0:
        return intc(a.value // b.value)
    if b.op == "int" and b.value == 1:
        return a
    return mk("div", (a, b))


def modi(a: Term, b: Term) -> Term:
    if a.op == "int" and b.op == "int" and b.value != 0:
        return intc(a.value % b.value)
    if b.op == "int" and b.value == 1:
        return intc(0)
    return mk("mod", (a, b))


# ---------------------------------------------------------------------------
# Bitwise operators over naturals
# ---------------------------------------------------------------------------

def xor(*args: Term) -> Term:
    """N-ary bitwise xor: folds literals, cancels equal pairs, drops 0."""
    flat = _flatten("xor", args)
    const = 0
    counts = {}
    order = []
    for a in flat:
        if a.op == "int":
            const ^= a.value
        else:
            if a._id not in counts:
                order.append(a)
            counts[a._id] = counts.get(a._id, 0) + 1
    rest = [a for a in order if counts[a._id] % 2 == 1]
    if const != 0 or not rest:
        rest.append(intc(const))
    if len(rest) == 1:
        return rest[0]
    return mk("xor", _sorted_args(rest))


def band(*args: Term) -> Term:
    flat = _flatten("band", args)
    const = -1
    rest = []
    seen = set()
    for a in flat:
        if a.op == "int":
            const &= a.value
        elif a._id not in seen:
            seen.add(a._id)
            rest.append(a)
    if const == 0:
        return intc(0)
    if const != -1 or not rest:
        rest.append(intc(const))
    if len(rest) == 1:
        return rest[0]
    return mk("band", _sorted_args(rest))


def bor(*args: Term) -> Term:
    flat = _flatten("bor", args)
    const = 0
    rest = []
    seen = set()
    for a in flat:
        if a.op == "int":
            const |= a.value
        elif a._id not in seen:
            seen.add(a._id)
            rest.append(a)
    if const != 0 or not rest:
        rest.append(intc(const))
    if len(rest) == 1:
        return rest[0]
    return mk("bor", _sorted_args(rest))


def bnot(a: Term, width: int) -> Term:
    """Bitwise complement within ``width`` bits."""
    mask = (1 << width) - 1
    if a.op == "int":
        return intc(a.value ^ mask)
    if a.op == "bnot" and a.value == width:
        return a.args[0]
    return mk("bnot", (a,), value=width)


def shl(a: Term, b: Term) -> Term:
    if a.op == "int" and b.op == "int":
        return intc(a.value << b.value)
    if b.op == "int" and b.value == 0:
        return a
    return mk("shl", (a, b))


def shr(a: Term, b: Term) -> Term:
    if a.op == "int" and b.op == "int":
        return intc(a.value >> b.value)
    if b.op == "int" and b.value == 0:
        return a
    return mk("shr", (a, b))


# ---------------------------------------------------------------------------
# Arrays and applications
# ---------------------------------------------------------------------------

def select(arr: Term, idx: Term) -> Term:
    """Array read, with read-over-write resolution when indices are decided."""
    while arr.op == "store":
        base, widx, wval = arr.args
        if widx is idx:
            return wval
        if widx.op == "int" and idx.op == "int":
            if widx.value == idx.value:
                return wval
            arr = base
            continue
        break
    return mk("select", (arr, idx))


def store(arr: Term, idx: Term, val: Term) -> Term:
    if arr.op == "store" and arr.args[1] is idx:
        arr = arr.args[0]
    return mk("store", (arr, idx, val))


def apply(fname: str, *args: Term) -> Term:
    """Application of a named (interpreted or uninterpreted) function."""
    return mk("apply", tuple(args), value=fname)


def forall(names: Sequence[str], body: Term) -> Term:
    if body.op == "bool":
        return body
    names = tuple(n for n in names if n in body.free_vars())
    if not names:
        return body
    return mk("forall", (body,), value=names)


def exists(names: Sequence[str], body: Term) -> Term:
    if body.op == "bool":
        return body
    names = tuple(n for n in names if n in body.free_vars())
    if not names:
        return body
    return mk("exists", (body,), value=names)
