"""Congruence closure over hash-consed terms.

Standard union-find with congruence propagation: asserting ``a = b`` merges
classes and re-congruences parent applications.  Used by the automatic
prover to discharge equality conclusions from equality hypotheses -- the
kind of reasoning SPADE's proof checker applies to `element/update` facts.

Disequalities are tracked so a contradictory hypothesis set is detected
(making any conclusion provable).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..logic import Term, mk

__all__ = ["CongruenceClosure"]


class CongruenceClosure:
    def __init__(self):
        self._parent: Dict[int, int] = {}
        self._terms: Dict[int, Term] = {}
        self._uses: Dict[int, List[Term]] = {}
        self._diseq: List[Tuple[int, int]] = []
        self._contradiction = False
        self._dirty = False

    @property
    def contradiction(self) -> bool:
        self._settle()
        return self._contradiction

    def _settle(self):
        """Congruence propagation is batched: merges mark the structure
        dirty and one fixpoint pass runs before the next query."""
        if self._dirty:
            self._dirty = False
            self._recongruence()
            self._check_contradictions()

    # -- union-find -------------------------------------------------------

    def _register(self, term: Term):
        if term._id in self._parent:
            return
        self._dirty = True  # a new node may be congruent to an old class
        self._parent[term._id] = term._id
        self._terms[term._id] = term
        for child in term.args:
            self._register(child)
            self._uses.setdefault(self._find(child._id), []).append(term)

    def _find(self, ident: int) -> int:
        root = ident
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[ident] != root:
            self._parent[ident], ident = root, self._parent[ident]
        return root

    def _signature(self, term: Term) -> Tuple:
        return (term.op, term.value,
                tuple(self._find(a._id) for a in term.args))

    # -- public api ---------------------------------------------------------

    def assert_equal(self, a: Term, b: Term):
        self._register(a)
        self._register(b)
        self._merge(a._id, b._id)
        self._dirty = True

    def assert_disequal(self, a: Term, b: Term):
        self._register(a)
        self._register(b)
        self._diseq.append((a._id, b._id))
        self._dirty = True

    def are_equal(self, a: Term, b: Term) -> bool:
        if a is b:
            return True
        self._register(a)
        self._register(b)
        self._settle()
        if self._find(a._id) == self._find(b._id):
            return True
        # Distinct literals in the same class would be a contradiction, but
        # distinct literal *roots* prove disequality, not equality.
        return False

    def are_disequal(self, a: Term, b: Term) -> bool:
        self._register(a)
        self._register(b)
        self._settle()
        ra, rb = self._find(a._id), self._find(b._id)
        la, lb = self._class_literal(ra), self._class_literal(rb)
        if la is not None and lb is not None and la != lb:
            return True
        for x, y in self._diseq:
            fx, fy = self._find(x), self._find(y)
            if (fx, fy) in ((ra, rb), (rb, ra)):
                return True
        return False

    # -- internals ---------------------------------------------------------

    def _class_literal(self, root: int):
        term = self._terms[root]
        if term.is_literal:
            return term.value
        # Another member might be the literal; scan lazily.
        for ident, t in self._terms.items():
            if self._find(ident) == root and t.is_literal:
                return t.value
        return None

    def _merge(self, a: int, b: int):
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        # Prefer keeping a literal as the representative.
        if self._terms[ra].is_literal:
            ra, rb = rb, ra
        self._parent[ra] = rb
        self._uses.setdefault(rb, []).extend(self._uses.pop(ra, []))

    def _recongruence(self):
        changed = True
        while changed:
            changed = False
            by_signature: Dict[Tuple, int] = {}
            for ident in list(self._parent):
                term = self._terms[ident]
                if not term.args:
                    continue
                sig = self._signature(term)
                other = by_signature.get(sig)
                if other is None:
                    by_signature[sig] = ident
                elif self._find(other) != self._find(ident):
                    self._merge(other, ident)
                    changed = True

    def _check_contradictions(self):
        for x, y in self._diseq:
            if self._find(x) == self._find(y):
                self._contradiction = True
                return
        # Two distinct literals in one class.
        literal_roots: Dict[int, object] = {}
        for ident, term in self._terms.items():
            if term.is_literal:
                root = self._find(ident)
                prior = literal_roots.get(root)
                if prior is not None and prior != term.value:
                    self._contradiction = True
                    return
                literal_roots[root] = term.value
