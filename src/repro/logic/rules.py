"""Simplification rule families and interval reasoning.

The SPARK Simplifier discharges the bulk of generated VCs with shallow
reasoning: constant propagation, interval/bounds arguments for range checks,
equality substitution, and hypothesis pruning.  This module provides the
same families, each tagged so the ablation benchmarks can disable one family
at a time:

``bounds``     discharge relations via sound context-free interval analysis
``boolean``    absorption / negation-of-relation cleanup
``equality``   orientation and use of variable equalities
``arrays``     select/store axioms beyond the constructor-level ones

:func:`interval_of` is also used directly by the prover with an environment
of known variable ranges harvested from VC hypotheses.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from . import builders as b
from .rewriter import Rule
from .terms import Term

__all__ = [
    "interval_of", "decide_relation", "default_rules", "rule_families",
    "select_store_split", "Interval",
]

#: (lo, hi) with ``None`` meaning unbounded on that side.
Interval = Tuple[Optional[int], Optional[int]]

_UNBOUNDED: Interval = (None, None)


def _add_bound(x: Optional[int], y: Optional[int]) -> Optional[int]:
    if x is None or y is None:
        return None
    return x + y


def _next_mask(n: int) -> int:
    """Smallest ``2^k - 1`` that is ``>= n`` (for xor/or upper bounds)."""
    if n <= 0:
        return 0
    return (1 << n.bit_length()) - 1


def interval_of(term: Term, env: Dict[str, Interval] = None,
                depth: int = 12, hook=None) -> Interval:
    """A sound interval for an integer-sorted term.

    ``env`` maps variable names to known intervals (harvested from VC
    hypotheses by the caller).  ``hook`` is an optional callable
    ``Term -> Interval | None`` supplying type-derived bounds (the VC
    generator knows, e.g., that any ``select`` from a Byte array is in
    [0, 255]).  Without either, the analysis is still useful because masking
    idioms are self-bounding: ``x & m`` lies in ``[0, m]`` for any integer
    ``x`` when ``m >= 0``, and ``x mod m`` lies in ``[0, m-1]`` for
    ``m > 0`` (Python/Euclidean semantics).
    """
    if depth <= 0:
        return _UNBOUNDED
    op = term.op
    if op == "int":
        return (term.value, term.value)
    if op == "var":
        # Hypothesis-derived bounds and type-derived (hook) bounds are both
        # sound: intersect them (the hypotheses are often tighter).
        elo, ehi = env.get(term.value, _UNBOUNDED) if env else _UNBOUNDED
        hlo, hhi = hook(term) or _UNBOUNDED if hook is not None \
            else _UNBOUNDED
        lo = elo if hlo is None else (hlo if elo is None else max(elo, hlo))
        hi = ehi if hhi is None else (hhi if ehi is None else min(ehi, hhi))
        return (lo, hi)
    if hook is not None:
        hinted = hook(term)
        if hinted is not None:
            return hinted
    if op == "band":
        # Any literal mask bounds the result from both sides.
        best: Interval = _UNBOUNDED
        nonneg_arg = False
        for a in term.args:
            lo, hi = interval_of(a, env, depth - 1, hook)
            if lo is not None and lo >= 0:
                nonneg_arg = True
                if best[1] is None or (hi is not None and hi < best[1]):
                    best = (0, hi)
        if nonneg_arg:
            return (0, best[1])
        return _UNBOUNDED
    if op == "mod":
        m = term.args[1]
        if m.op == "int" and m.value > 0:
            return (0, m.value - 1)
        return _UNBOUNDED
    if op == "add":
        lo, hi = 0, 0
        for a in term.args:
            alo, ahi = interval_of(a, env, depth - 1, hook)
            lo = _add_bound(lo, alo)
            hi = _add_bound(hi, ahi)
            if lo is None and hi is None:
                return _UNBOUNDED
        return (lo, hi)
    if op == "mul":
        los_his = [interval_of(a, env, depth - 1, hook) for a in term.args]
        lo, hi = 1, 1
        for alo, ahi in los_his:
            if alo is None or ahi is None:
                return _UNBOUNDED
            candidates = [lo * alo, lo * ahi, hi * alo, hi * ahi]
            lo, hi = min(candidates), max(candidates)
        return (lo, hi)
    if op == "shr":
        alo, ahi = interval_of(term.args[0], env, depth - 1, hook)
        k = term.args[1]
        if k.op == "int" and k.value >= 0 and alo is not None and alo >= 0:
            return (0, None if ahi is None else ahi >> k.value)
        return _UNBOUNDED
    if op == "shl":
        alo, ahi = interval_of(term.args[0], env, depth - 1, hook)
        k = term.args[1]
        if k.op == "int" and k.value >= 0 and alo is not None and alo >= 0:
            return (alo << k.value, None if ahi is None else ahi << k.value)
        return _UNBOUNDED
    if op in ("xor", "bor"):
        hi_mask = 0
        for a in term.args:
            alo, ahi = interval_of(a, env, depth - 1, hook)
            if alo is None or alo < 0 or ahi is None:
                return _UNBOUNDED
            hi_mask = max(hi_mask, ahi)
        return (0, _next_mask(hi_mask))
    if op == "bnot":
        width = term.value
        return (0, (1 << width) - 1)
    if op == "div":
        alo, ahi = interval_of(term.args[0], env, depth - 1, hook)
        m = term.args[1]
        if m.op == "int" and m.value > 0 and alo is not None and alo >= 0:
            # Floor division is monotone for nonnegative dividends.
            return (alo // m.value, None if ahi is None else ahi // m.value)
        return _UNBOUNDED
    if op == "ite":
        tlo, thi = interval_of(term.args[1], env, depth - 1, hook)
        elo, ehi = interval_of(term.args[2], env, depth - 1, hook)
        lo = None if tlo is None or elo is None else min(tlo, elo)
        hi = None if thi is None or ehi is None else max(thi, ehi)
        return (lo, hi)
    return _UNBOUNDED


def decide_relation(term: Term, env: Dict[str, Interval] = None,
                    hook=None) -> Optional[bool]:
    """Decide ``lt``/``le``/``eq`` relations by interval separation, or None."""
    if term.op not in ("lt", "le", "eq"):
        return None
    alo, ahi = interval_of(term.args[0], env, hook=hook)
    blo, bhi = interval_of(term.args[1], env, hook=hook)
    if term.op == "lt":
        if ahi is not None and blo is not None and ahi < blo:
            return True
        if alo is not None and bhi is not None and alo >= bhi:
            return False
    elif term.op == "le":
        if ahi is not None and blo is not None and ahi <= blo:
            return True
        if alo is not None and bhi is not None and alo > bhi:
            return False
    elif term.op == "eq":
        # Only the disequality direction is decidable by separation.
        if ahi is not None and blo is not None and ahi < blo:
            return False
        if bhi is not None and alo is not None and bhi < alo:
            return False
    return None


# ---------------------------------------------------------------------------
# Rule family: bounds
# ---------------------------------------------------------------------------

def _make_interval_rule(hook=None):
    def _rule_interval_relation(term: Term) -> Optional[Term]:
        decided = decide_relation(term, hook=hook)
        if decided is None:
            return None
        return b.boolc(decided)
    return _rule_interval_relation


def _make_vacuous_forall_rule(hook=None):
    def _rule_vacuous_forall(term: Term) -> Optional[Term]:
        """``forall k: (lo <= k and k <= hi) -> body`` is true when the
        guard range is empty for every valuation (lo always > hi)."""
        if term.op != "forall":
            return None
        body = term.args[0]
        if body.op != "implies":
            return None
        if len(term.value) != 1:
            return None
        the_var = term.value[0]
        guard = body.args[0]
        parts = guard.args if guard.op == "and" else (guard,)
        lows, highs = [], []
        for part in parts:
            if part.op != "le":
                continue
            a, c = part.args
            if c.op == "var" and c.value == the_var:
                lows.append(a)
            elif a.op == "var" and a.value == the_var:
                highs.append(c)
        for low in lows:
            lo_lo, _ = interval_of(low, hook=hook)
            for high in highs:
                _, hi_hi = interval_of(high, hook=hook)
                if lo_lo is not None and hi_hi is not None and lo_lo > hi_hi:
                    return b.TRUE
        return None
    return _rule_vacuous_forall


# ---------------------------------------------------------------------------
# Rule family: boolean
# ---------------------------------------------------------------------------

def _rule_not_relation(term: Term) -> Optional[Term]:
    """not (a < b) -> b <= a;   not (a <= b) -> b < a."""
    if term.op != "not":
        return None
    inner = term.args[0]
    if inner.op == "lt":
        return b.le(inner.args[1], inner.args[0])
    if inner.op == "le":
        return b.lt(inner.args[1], inner.args[0])
    return None


def _rule_absorb(term: Term) -> Optional[Term]:
    """a and (a or b) -> a;   a or (a and b) -> a."""
    if term.op == "and":
        members = {a._id for a in term.args}
        kept = [a for a in term.args
                if not (a.op == "or" and any(x._id in members for x in a.args))]
        if len(kept) != len(term.args):
            return b.conj(*kept)
    if term.op == "or":
        members = {a._id for a in term.args}
        kept = [a for a in term.args
                if not (a.op == "and" and any(x._id in members for x in a.args))]
        if len(kept) != len(term.args):
            return b.disj(*kept)
    return None


def _rule_implies_self(term: Term) -> Optional[Term]:
    """(H and C and ...) -> C   simplifies to true when C is a hypothesis."""
    if term.op != "implies":
        return None
    hyp, concl = term.args
    hyp_ids = {a._id for a in hyp.args} if hyp.op == "and" else {hyp._id}
    if concl._id in hyp_ids:
        return b.TRUE
    if concl.op == "and":
        kept = [c for c in concl.args if c._id not in hyp_ids]
        if len(kept) != len(concl.args):
            return b.implies(hyp, b.conj(*kept))
    return None


# ---------------------------------------------------------------------------
# Rule family: equality
# ---------------------------------------------------------------------------

def _rule_eq_literal_contradiction(term: Term) -> Optional[Term]:
    """Conjunction binding one variable to two distinct literals -> false."""
    if term.op != "and":
        return None
    bound: Dict[str, int] = {}
    for a in term.args:
        if a.op == "eq":
            x, y = a.args
            if x.op == "var" and y.op == "int":
                x, y = y, x
            if y.op == "var" and x.op == "int":
                prior = bound.get(y.value)
                if prior is not None and prior != x.value:
                    return b.FALSE
                bound[y.value] = x.value
    return None


# ---------------------------------------------------------------------------
# Rule family: arrays
# ---------------------------------------------------------------------------

def _rule_store_select_same(term: Term) -> Optional[Term]:
    """store(a, i, a[i]) -> a."""
    if term.op != "store":
        return None
    arr, idx, val = term.args
    if val.op == "select" and val.args[0] is arr and val.args[1] is idx:
        return arr
    return None


def select_store_split(term: Term) -> Optional[Term]:
    """select(store(a, i, v), k) -> ite(i = k, v, a[k]) for undecided
    indices.  In no family: the provers add it to their own rule sets,
    each under its own rule name and family (those feed rule keys), and
    the examiner's simplifier must not apply it because it inflates the
    reported simplified-VC sizes."""
    if term.op != "select":
        return None
    arr, idx = term.args
    if arr.op != "store":
        return None
    base, widx, wval = arr.args
    return b.ite(b.eq(widx, idx), wval, b.select(base, idx))


def rule_families(hook=None) -> Dict[str, list]:
    """All rules, grouped by family (for the ablation benchmarks).

    ``hook`` supplies type-derived term bounds to the bounds family.
    Every rule declares its ``ops`` -- the exact root operators it can
    fire on (each ``fn`` returns ``None`` for anything else) -- feeding
    the rewriter's head-op dispatch table."""
    return {
        "bounds": [Rule("interval-relation", "bounds",
                        _make_interval_rule(hook),
                        ops=frozenset({"lt", "le", "eq"})),
                   Rule("vacuous-forall", "bounds",
                        _make_vacuous_forall_rule(hook),
                        ops=frozenset({"forall"}))],
        "boolean": [
            Rule("not-relation", "boolean", _rule_not_relation,
                 ops=frozenset({"not"})),
            Rule("absorb", "boolean", _rule_absorb,
                 ops=frozenset({"and", "or"})),
            Rule("implies-self", "boolean", _rule_implies_self,
                 ops=frozenset({"implies"})),
        ],
        "equality": [
            Rule("eq-literal-contradiction", "equality",
                 _rule_eq_literal_contradiction, ops=frozenset({"and"})),
        ],
        "arrays": [Rule("store-select-same", "arrays",
                        _rule_store_select_same,
                        ops=frozenset({"store"}))],
    }


def default_rules(exclude_families=(), hook=None) -> list:
    """The default simplifier rule set, optionally with families disabled."""
    rules = []
    for family, members in rule_families(hook).items():
        if family in exclude_families:
            continue
        rules.extend(members)
    return rules
