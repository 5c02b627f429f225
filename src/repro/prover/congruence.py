"""Congruence closure over hash-consed terms.

Incremental congruence closure in the style of Downey, Sethi and Tarjan
("Variations on the Common Subexpression Problem", JACM 1980): a
union-find over term ids, a *use list* per class (the applications with
an argument in that class) and a *signature table* mapping
``(op, value, argument roots)`` to a term with that signature.  Merging
two classes re-signs only the applications in the use list of the class
that loses its root -- the shorter list -- and any signature collision
queues a further merge, so a merge costs in proportion to the
applications whose signature actually changed.  Used by the automatic
prover to discharge equality conclusions from equality hypotheses -- the
kind of reasoning SPADE's proof checker applies to `element/update`
facts.

Disequalities are tracked, and each class remembers a literal it
contains, so a contradictory hypothesis set is detected (making any
conclusion provable).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..logic import Term

__all__ = ["CongruenceClosure"]

_LITERAL_OPS = ("int", "bool")


class CongruenceClosure:
    def __init__(self):
        self._parent: Dict[int, int] = {}
        #: root -> the applications with an argument in the root's class
        self._uses: Dict[int, List[Term]] = {}
        #: (op, value, argument roots) -> a registered term with it
        self._sigs: Dict[Tuple, Term] = {}
        #: root -> the value of a literal in the root's class
        self._literal: Dict[int, object] = {}
        self._diseq: List[Tuple[int, int]] = []
        self._clash = False   # two distinct literals in one class
        self._pending: List[Tuple[int, int]] = []

    @property
    def contradiction(self) -> bool:
        if self._clash:
            return True
        find = self._find
        return any(find(x) == find(y) for x, y in self._diseq)

    # -- union-find -------------------------------------------------------

    def _register(self, term: Term):
        """Register ``term`` and its subterms, children first, merging
        each new application with a registered congruent one."""
        parent = self._parent
        uses = self._uses
        sigs = self._sigs
        find = self._find
        stack = [term]
        while stack:
            node = stack[-1]
            ident = node._id
            if ident in parent:
                stack.pop()
                continue
            args = node.args
            fresh = [child for child in args if child._id not in parent]
            if fresh:
                stack.extend(fresh)
                continue
            stack.pop()
            parent[ident] = ident
            if not args:
                if node.op in _LITERAL_OPS:
                    self._literal[ident] = node.value
                continue
            roots = tuple([find(child._id) for child in args])
            for root in roots:
                uses.setdefault(root, []).append(node)
            sig = (node.op, node.value, roots)
            other = sigs.get(sig)
            if other is None:
                sigs[sig] = node
            else:
                self._pending.append((ident, other._id))
        self._propagate()

    def _find(self, ident: int) -> int:
        parent = self._parent
        root = ident
        while parent[root] != root:
            root = parent[root]
        while parent[ident] != root:
            parent[ident], ident = root, parent[ident]
        return root

    def _signature(self, term: Term) -> Tuple:
        find = self._find
        return (term.op, term.value,
                tuple([find(a._id) for a in term.args]))

    # -- public api ---------------------------------------------------------

    def assert_equal(self, a: Term, b: Term):
        self._require(a, b)
        if self._find(a._id) != self._find(b._id):
            self._pending.append((a._id, b._id))
            self._propagate()

    def assert_disequal(self, a: Term, b: Term):
        self._require(a, b)
        self._diseq.append((a._id, b._id))

    def are_equal(self, a: Term, b: Term) -> bool:
        if a is b:
            return True
        self._require(a, b)
        # Distinct literals in the same class would be a contradiction, but
        # distinct literal *roots* prove disequality, not equality.
        return self._find(a._id) == self._find(b._id)

    def are_disequal(self, a: Term, b: Term) -> bool:
        self._require(a, b)
        ra, rb = self._find(a._id), self._find(b._id)
        la, lb = self._literal.get(ra), self._literal.get(rb)
        if la is not None and lb is not None and la != lb:
            return True
        for x, y in self._diseq:
            fx, fy = self._find(x), self._find(y)
            if (fx, fy) in ((ra, rb), (rb, ra)):
                return True
        return False

    # -- internals ---------------------------------------------------------

    def _require(self, a: Term, b: Term):
        """Register whichever of ``a`` and ``b`` is new."""
        parent = self._parent
        if a._id not in parent:
            self._register(a)
        if b._id not in parent:
            self._register(b)

    def _propagate(self):
        """Perform queued merges, re-signing the applications over the
        class that loses its root and queueing the congruences found."""
        pending = self._pending
        uses = self._uses
        sigs = self._sigs
        while pending:
            a, b = pending.pop()
            ra, rb = self._find(a), self._find(b)
            if ra == rb:
                continue
            if len(uses.get(ra, ())) > len(uses.get(rb, ())):
                ra, rb = rb, ra
            self._parent[ra] = rb
            literal = self._literal.pop(ra, None)
            if literal is not None:
                kept = self._literal.setdefault(rb, literal)
                if kept != literal:
                    self._clash = True
            moved = uses.pop(ra, None)
            if not moved:
                continue
            for term in moved:
                sig = self._signature(term)
                other = sigs.get(sig)
                if other is None:
                    sigs[sig] = term
                elif self._find(other._id) != self._find(term._id):
                    pending.append((term._id, other._id))
            uses.setdefault(rb, []).extend(moved)
