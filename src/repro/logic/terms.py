"""Hash-consed logical terms.

Every verification artifact in this reproduction -- verification conditions,
symbolic states, extracted specification bodies, proof obligations -- is built
from the ``Term`` type defined here.  Terms are immutable and *hash-consed*:
structurally equal terms are the same Python object, so equality is ``is``,
hashing is O(1), and a term that would print as gigabytes of text is held as a
compact DAG.

This matters for fidelity to the paper: the SPARK tools materialized
verification conditions as trees and "ran out of resources" on unrolled code
(section 6.2.2).  By sharing structure we can *measure* the tree size the
paper's tools choked on (see :mod:`repro.logic.measure`) while still being
able to manipulate the term.

Operator vocabulary
-------------------

==============  =========================================================
kind            meaning
==============  =========================================================
``int``         integer literal (``value`` is the int)
``bool``        boolean literal (``value`` is True/False)
``var``         logical variable (``value`` is the name)
``and or not``  boolean connectives (``and``/``or`` are n-ary, flattened)
``implies iff`` binary boolean connectives
``ite``         if-then-else (args: cond, then, else)
``eq lt le``    relations (gt/ge are normalized away by the builders)
``add mul``     n-ary arithmetic
``sub div mod neg``  binary / unary arithmetic (Euclidean div/mod)
``xor band bor``     n-ary bitwise ops over naturals
``bnot``        bitwise complement; args: term, ``value`` = bit width
``shl shr``     shifts
``select``      array read (array, index)
``store``       array write (array, index, value)
``apply``       function application; ``value`` is the function name
``forall exists``  quantifiers; ``value`` is a tuple of bound names,
                single arg is the body
==============  =========================================================
"""

from __future__ import annotations

import itertools
import threading
from typing import Iterator, Tuple

__all__ = ["Term", "TermTable", "term_table", "mk", "BOOLEAN_OPS", "COMMUTATIVE_OPS"]

#: Ops whose result is boolean-sorted.
BOOLEAN_OPS = frozenset(
    ["bool", "and", "or", "not", "implies", "iff", "eq", "lt", "le", "forall", "exists"]
)

#: Ops that are associative-commutative; the builders sort their arguments
#: into a canonical order so hash-consing identifies more equal terms.
COMMUTATIVE_OPS = frozenset(["and", "or", "add", "mul", "xor", "band", "bor"])


class Term:
    """An immutable, hash-consed term node.

    Do not instantiate directly: use :func:`mk` or the smart constructors in
    :mod:`repro.logic.builders`, which route through the interning table.

    Pickling routes through the structural wire format of
    :mod:`repro.logic.wire` (which installs ``__reduce__`` on import), so
    an unpickled term is re-interned in the receiving process and identity
    semantics survive the process boundary.
    """

    __slots__ = ("op", "args", "value", "_id", "__weakref__")

    def __init__(self, op: str, args: Tuple["Term", ...], value, ident: int):
        self.op = op
        self.args = args
        self.value = value
        self._id = ident

    # Identity semantics: hash-consing guarantees structural equality is
    # object identity, so the default object __eq__/__hash__ are correct and
    # fast.  We pin them explicitly for documentation value.
    def __hash__(self) -> int:
        return self._id

    def __eq__(self, other) -> bool:
        return self is other

    def __repr__(self) -> str:
        from .printer import render

        text = render(self, max_chars=120)
        return f"Term({text})"

    # -- structural helpers -------------------------------------------------

    @property
    def is_literal(self) -> bool:
        """True for integer and boolean literals."""
        return self.op in ("int", "bool")

    @property
    def is_true(self) -> bool:
        return self.op == "bool" and self.value is True

    @property
    def is_false(self) -> bool:
        return self.op == "bool" and self.value is False

    def iter_dag(self) -> Iterator["Term"]:
        """Yield each distinct subterm exactly once (post-order)."""
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if node._id in seen:
                continue
            if expanded:
                seen.add(node._id)
                yield node
            else:
                stack.append((node, True))
                for child in node.args:
                    if child._id not in seen:
                        stack.append((child, False))

    def free_vars(self) -> frozenset:
        """Names of free variables, computed DAG-wise."""
        return _free_vars(self)


class TermTable:
    """Interning table: maps (op, arg ids, value) to the unique Term.

    Thread safety: the scheduler in :mod:`repro.exec` constructs terms
    from pool workers, so interning must be safe under concurrent
    construction.  ``make`` uses double-checked locking -- the unlocked
    fast-path read is safe in CPython (dict reads never observe a
    partially inserted entry under the GIL), and the lock makes the
    check-then-insert atomic so two racing threads interning the same key
    always receive the *same* object.  Identity semantics
    (``__eq__ is is``) would silently break if a duplicate ever escaped.
    """

    def __init__(self):
        self._table = {}
        self._counter = itertools.count(1)
        self._lock = threading.Lock()
        self._free_vars_cache = {}

    def make(self, op: str, args: Tuple[Term, ...] = (), value=None) -> Term:
        key = (op, tuple(t._id for t in args), value)
        hit = self._table.get(key)
        if hit is not None:
            return hit
        with self._lock:
            hit = self._table.get(key)
            if hit is not None:
                return hit
            term = Term(op, args, value, next(self._counter))
            self._table[key] = term
            return term

    def __len__(self) -> int:
        return len(self._table)


#: The process-wide interning table.  Terms from different analyses share it;
#: that is safe because terms are immutable and context-free.
term_table = TermTable()


def mk(op: str, args: Tuple[Term, ...] = (), value=None) -> Term:
    """Intern and return the term ``op(args)`` with payload ``value``.

    This is the *raw* constructor: no simplification or canonical argument
    ordering happens here.  Prefer the smart constructors in
    :mod:`repro.logic.builders` unless you need an exact shape.
    """
    return term_table.make(op, tuple(args), value)


def _free_vars(term: Term) -> frozenset:
    from .traversal import postorder_missing  # late: keep terms dependency-free

    cache = term_table._free_vars_cache
    result = cache.get(term._id)
    if result is not None:
        return result
    # Iterative post-order (children strictly before parents) so huge DAGs do
    # not blow the recursion limit; the walk prunes at already-computed
    # subterms.  Concurrent calls race benignly: each thread computes the
    # same frozenset for the same node; setdefault publishes the first
    # writer's object so all threads share one value.
    for node in postorder_missing(term, cache):
        if node.op == "var":
            acc = frozenset([node.value])
        else:
            acc = frozenset()
            for child in node.args:
                acc |= cache[child._id]
            if node.op in ("forall", "exists"):
                acc -= frozenset(node.value)
        cache.setdefault(node._id, acc)
    return cache[term._id]
