"""Interval-based linear arithmetic for the automatic prover.

Harvests variable bounds from hypothesis relations into an environment and
iterates to a fixpoint (an equality ``x = e`` propagates the interval of
``e`` into ``x``, which may tighten other terms, and so on).  Decision is
then delegated to :func:`repro.logic.rules.decide_relation` with the
environment plus the type-bound hook.

This is deliberately *interval* arithmetic, not a simplex: the VCs MiniAda
programs generate (index bounds, range checks, loop counters) are interval
problems, and keeping the engine simple keeps the automatic/interactive
boundary honest.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..logic import Term, le, lt
from ..logic.rules import Interval, decide_relation, interval_of

__all__ = ["harvest_env", "env_decide", "DifferenceBounds", "build_dbm"]

_FIXPOINT_ROUNDS = 4


def _tighten(env: Dict[str, Interval], name: str,
             lo: Optional[int], hi: Optional[int]) -> bool:
    old_lo, old_hi = env.get(name, (None, None))
    new_lo = old_lo if lo is None else (lo if old_lo is None else max(lo, old_lo))
    new_hi = old_hi if hi is None else (hi if old_hi is None else min(hi, old_hi))
    if (new_lo, new_hi) != (old_lo, old_hi):
        env[name] = (new_lo, new_hi)
        return True
    return False


def harvest_env(hypotheses: Iterable[Term], hook=None
                ) -> Dict[str, Interval]:
    """Fixpoint interval environment from hypothesis relations."""
    hyps = list(hypotheses)
    env: Dict[str, Interval] = {}
    for _ in range(_FIXPOINT_ROUNDS):
        changed = False
        for h in hyps:
            changed |= _harvest_one(h, env, hook)
        if not changed:
            break
    return env


def _harvest_one(h: Term, env: Dict[str, Interval], hook) -> bool:
    changed = False
    if h.op == "and":
        for part in h.args:
            changed |= _harvest_one(part, env, hook)
        return changed
    if h.op == "eq":
        a, b = h.args
        if b.op == "var":
            a, b = b, a
        if a.op == "var":
            lo, hi = interval_of(b, env, hook=hook)
            changed |= _tighten(env, a.value, lo, hi)
            if b.op == "var":  # propagate both directions for var = var
                lo2, hi2 = env.get(a.value, (None, None))
                changed |= _tighten(env, b.value, lo2, hi2)
        return changed
    if h.op == "le":
        a, b = h.args
        if a.op == "var":
            _, bhi = interval_of(b, env, hook=hook)
            changed |= _tighten(env, a.value, None, bhi)
        if b.op == "var":
            alo, _ = interval_of(a, env, hook=hook)
            changed |= _tighten(env, b.value, alo, None)
        return changed
    if h.op == "lt":
        a, b = h.args
        if a.op == "var":
            _, bhi = interval_of(b, env, hook=hook)
            changed |= _tighten(env, a.value, None,
                                None if bhi is None else bhi - 1)
        if b.op == "var":
            alo, _ = interval_of(a, env, hook=hook)
            changed |= _tighten(env, b.value,
                                None if alo is None else alo + 1, None)
        return changed
    if h.op == "not":
        inner = h.args[0]
        if inner.op == "lt":
            return _harvest_one(_flip_le(inner), env, hook)
        if inner.op == "le":
            return _harvest_one(_flip_lt(inner), env, hook)
    return changed


def _flip_le(lt_term: Term) -> Term:
    return le(lt_term.args[1], lt_term.args[0])


def _flip_lt(le_term: Term) -> Term:
    return lt(le_term.args[1], le_term.args[0])


def env_decide(concl: Term, env: Dict[str, Interval], hook=None
               ) -> Optional[bool]:
    if concl.op == "not":
        inner = env_decide(concl.args[0], env, hook)
        return None if inner is None else not inner
    return decide_relation(concl, env=env, hook=hook)


# ---------------------------------------------------------------------------
# Difference-bound reasoning
# ---------------------------------------------------------------------------

_ZERO = "<zero>"
_INF = None  # absence of an edge


def _atom(term: Term):
    """Parse ``var``, ``int`` or ``var + literal`` into (node, offset)."""
    if term.op == "int":
        return _ZERO, term.value
    if term.op == "var":
        return term.value, 0
    if term.op == "add":
        var_name = None
        offset = 0
        for a in term.args:
            if a.op == "int":
                offset += a.value
            elif a.op == "var" and var_name is None:
                var_name = a.value
            else:
                return None
        if var_name is None:
            return _ZERO, offset
        return var_name, offset
    return None


class DifferenceBounds:
    """Difference-bound matrix over VC variables.

    Handles the relational facts interval environments cannot: loop-counter
    chains like ``K <= I`` combined with integer disequality tightening
    (``K <= I`` and ``K /= I`` imply ``K <= I - 1``), which every loop
    invariant preservation VC needs.
    """

    def __init__(self):
        self._edges: Dict[tuple, int] = {}
        self._nodes = {_ZERO}
        self._diseqs = []  # (a, b, c): constraint  value(a) - value(b) != c
        self.contradiction = False
        self._closed = False

    def add_le(self, a: str, b: str, c: int):
        """value(a) - value(b) <= c."""
        self._nodes.add(a)
        self._nodes.add(b)
        key = (a, b)
        old = self._edges.get(key)
        if old is None or c < old:
            self._edges[key] = c
            self._closed = False

    def add_hypothesis(self, h: Term) -> bool:
        """Returns True if the hypothesis contributed a constraint."""
        negated = False
        if h.op == "not":
            h, negated = h.args[0], True
        if h.op not in ("le", "lt", "eq"):
            return False
        left = _atom(h.args[0])
        right = _atom(h.args[1])
        if left is None or right is None:
            return False
        (a, ca), (b, cb) = left, right
        op = h.op
        if negated:
            if op == "le":      # not (x <= y)  ->  y < x
                (a, ca), (b, cb), op = (b, cb), (a, ca), "lt"
            elif op == "lt":    # not (x < y)   ->  y <= x
                (a, ca), (b, cb), op = (b, cb), (a, ca), "le"
            else:               # not (x = y)
                self._nodes.update((a, b))
                self._diseqs.append((a, b, cb - ca))
                self._closed = False
                return True
        if op == "le":
            self.add_le(a, b, cb - ca)
        elif op == "lt":
            self.add_le(a, b, cb - ca - 1)
        else:
            self.add_le(a, b, cb - ca)
            self.add_le(b, a, ca - cb)
        return True

    def _close(self):
        if self._closed:
            return
        nodes = sorted(self._nodes)
        dist = dict(self._edges)
        for k in nodes:
            for i in nodes:
                ik = dist.get((i, k))
                if ik is None:
                    continue
                for j in nodes:
                    kj = dist.get((k, j))
                    if kj is None:
                        continue
                    through = ik + kj
                    current = dist.get((i, j))
                    if current is None or through < current:
                        dist[(i, j)] = through
        for n in nodes:
            if dist.get((n, n), 0) < 0:
                self.contradiction = True
        self._edges = dist
        self._closed = True
        # Integer tightening with disequalities: a - b <= c and a - b >= c
        # and a - b /= c is a contradiction; a - b <= c and a - b /= c
        # tightens to <= c - 1.
        tightened = False
        for a, b, c in self._diseqs:
            upper = self._edges.get((a, b))
            lower = self._edges.get((b, a))
            if upper is not None and lower is not None and \
                    upper == c and lower == -c:
                self.contradiction = True
            elif upper is not None and upper == c:
                self._edges[(a, b)] = c - 1
                tightened = True
            elif lower is not None and lower == -c:
                self._edges[(b, a)] = -c - 1
                tightened = True
        if tightened:
            self._closed = False
            self._close()

    def distance(self, a: str, b: str) -> Optional[int]:
        """Tightest known bound on value(a) - value(b)."""
        self._close()
        if a == b:
            return min(self._edges.get((a, b), 0), 0)
        return self._edges.get((a, b))

    def decide(self, concl: Term) -> Optional[bool]:
        """Decide le/lt/eq (or their negations) relative to the constraints."""
        self._close()
        if self.contradiction:
            return True
        if concl.op == "not":
            inner = self.decide(concl.args[0])
            return None if inner is None else not inner
        if concl.op not in ("le", "lt", "eq"):
            return None
        left = _atom(concl.args[0])
        right = _atom(concl.args[1])
        if left is None or right is None:
            return None
        (a, ca), (b, cb) = left, right
        need = cb - ca  # prove a - b <= need (le), <= need - 1 (lt)
        d_ab = self.distance(a, b)
        d_ba = self.distance(b, a)
        if concl.op == "le":
            if d_ab is not None and d_ab <= need:
                return True
            if d_ba is not None and d_ba <= -need - 1:
                return False  # a - b >= need + 1 always
        elif concl.op == "lt":
            if d_ab is not None and d_ab <= need - 1:
                return True
            if d_ba is not None and d_ba <= -need:
                return False
        elif concl.op == "eq":
            if d_ab is not None and d_ba is not None and \
                    d_ab <= need and d_ba <= -need:
                return True
            if (d_ab is not None and d_ab < need) or \
                    (d_ba is not None and d_ba < -need):
                return False
        return None


def build_dbm(hypotheses: Iterable[Term],
              var_bounds: Optional[Dict[str, Interval]] = None
              ) -> DifferenceBounds:
    """DBM from hypotheses plus optional per-variable literal bounds."""
    dbm = DifferenceBounds()
    for h in hypotheses:
        if h.op == "and":
            for part in h.args:
                dbm.add_hypothesis(part)
        else:
            dbm.add_hypothesis(h)
    if var_bounds:
        for name, (lo, hi) in var_bounds.items():
            if hi is not None:
                dbm.add_le(name, _ZERO, hi)
            if lo is not None:
                dbm.add_le(_ZERO, name, -lo)
    return dbm
