"""A naive congruence closure: the differential reference for
:class:`repro.prover.CongruenceClosure`.

It keeps only the asserted facts and the registered terms (every
subterm of every term asserted or queried).  Each query recomputes the
closure from scratch: union the asserted equalities, then merge any two
registered applications with the same operator, payload and argument
classes, rescanning every pair until nothing changes.  Quadratic per
pass and with no use lists or signature table, so it shares none of
the incremental engine's bookkeeping.
"""

from typing import Dict, List, Tuple

from repro.logic.terms import Term

__all__ = ["NaiveCongruenceClosure"]


class NaiveCongruenceClosure:
    def __init__(self):
        self._terms: Dict[int, Term] = {}
        self._eqs: List[Tuple[Term, Term]] = []
        self._diseqs: List[Tuple[Term, Term]] = []

    def _add(self, *terms: Term) -> None:
        for t in terms:
            for node in t.iter_dag():
                self._terms.setdefault(node._id, node)

    def _classes(self) -> Dict[int, int]:
        """Term id -> the smallest id in its class."""
        rep = {ident: ident for ident in self._terms}

        def find(x):
            while rep[x] != x:
                x = rep[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                rep[max(rx, ry)] = min(rx, ry)
                return True
            return False

        for a, b in self._eqs:
            union(a._id, b._id)
        apps = [t for t in self._terms.values() if t.args]
        changed = True
        while changed:
            changed = False
            for s in apps:
                for t in apps:
                    if s is t or s.op != t.op or s.value != t.value \
                            or len(s.args) != len(t.args):
                        continue
                    if all(find(x._id) == find(y._id)
                           for x, y in zip(s.args, t.args)):
                        changed |= union(s._id, t._id)
        return {ident: find(ident) for ident in self._terms}

    def _literals(self, classes) -> Dict[int, list]:
        out: Dict[int, list] = {}
        for ident, t in self._terms.items():
            if t.is_literal:
                out.setdefault(classes[ident], []).append(t.value)
        return out

    # -- the CongruenceClosure api ------------------------------------------

    def assert_equal(self, a: Term, b: Term) -> None:
        self._add(a, b)
        self._eqs.append((a, b))

    def assert_disequal(self, a: Term, b: Term) -> None:
        self._add(a, b)
        self._diseqs.append((a, b))

    @property
    def contradiction(self) -> bool:
        classes = self._classes()
        if any(classes[a._id] == classes[b._id] for a, b in self._diseqs):
            return True
        return any(v != w for values in self._literals(classes).values()
                   for v in values for w in values)

    def are_equal(self, a: Term, b: Term) -> bool:
        self._add(a, b)
        classes = self._classes()
        return a is b or classes[a._id] == classes[b._id]

    def are_disequal(self, a: Term, b: Term) -> bool:
        """Meaningful only without a contradiction (a class holding two
        distinct literals has no one literal value)."""
        self._add(a, b)
        classes = self._classes()
        ra, rb = classes[a._id], classes[b._id]
        literals = self._literals(classes)
        if ra in literals and rb in literals and \
                literals[ra][0] != literals[rb][0]:
            return True
        return any({classes[x._id], classes[y._id]} == {ra, rb}
                   for x, y in self._diseqs)
