"""The automatic prover.

Combines, in order of increasing cost:

1. rewriting/simplification (shared with the simplifier);
2. ground evaluation of closed conclusions;
3. interval arithmetic over hypothesis-derived environments;
4. congruence closure over hypothesis equalities;
5. axiom instantiation (function contracts and ``--# rule`` proof rules,
   triggered by matching applications in the VC);
6. bounded case splitting on disjunctive hypotheses and small quantified
   conclusions.

Anything this prover cannot discharge is, by definition, "interactive" --
the boundary the paper's 86.6%-automatic figure measures.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..lang import TypedPackage, ast
from ..logic import (
    TRUE, Term, boolc, conj, implies, intc, neg, rebuild_smart, substitute,
    substitute_simplifying, var,
)
from ..logic.rules import select_store_split
from ..vcgen.simplifier import Simplifier, TypeBoundHook, simplifier_rules_key
from ..vcgen.translate import TranslationContext, translate_expr
from ..vcgen.wp import Obligation
from .congruence import CongruenceClosure
from .ground import GroundEvaluator
from .linarith import build_dbm, env_decide, harvest_env

__all__ = ["ProofResult", "AutoProver", "package_axioms", "Axiom",
           "WORK_BUDGET"]

#: The work budget of one :meth:`AutoProver.prove` call in the proof
#: session, counted in interval decisions (:func:`env_decide` calls).
#: Measured on the AES implementation proof (DESIGN.md §9): a call that
#: proves makes at most 17,653; every call the old 3 s CPU budget cut
#: off had made at least 62,574.
WORK_BUDGET = 30_000

_MAX_INSTANTIATIONS = 400
_MAX_FORALL_INSTANCES = 64
_CASE_SPLIT_DEPTH = 9


@dataclass(frozen=True)
class ProofResult:
    proved: bool
    method: str
    detail: str = ""


@dataclass(frozen=True)
class Axiom:
    """A universally quantified fact available to the prover."""

    name: str
    bound: Tuple[str, ...]
    body: Term  # with bound vars free as var(name)


#: Package axioms are a pure function of the typed package, and prover
#: instances are constructed per VC (instance state is search history;
#: see :class:`AutoProver`), so re-translating every contract and proof
#: rule on each construction would put hundreds of translations on the
#: corpus hot path.  Weak keys: the memo must not outlive the package.
_AXIOMS_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def package_axioms(typed: TypedPackage) -> List[Axiom]:
    """Axioms contributed by the package: proof rules and function
    contracts (``pre => post[Result := f(params)]``).  Memoized per
    package object."""
    cached = _AXIOMS_MEMO.get(typed)
    if cached is not None:
        return list(cached)
    axioms = _package_axioms(typed)
    _AXIOMS_MEMO[typed] = tuple(axioms)
    return axioms


def _package_axioms(typed: TypedPackage) -> List[Axiom]:
    axioms: List[Axiom] = []
    for rule in typed.proof_rules:
        rule_sp = ast.Subprogram(name=f"<rule {rule.name}>",
                                 params=rule.params, return_type=None,
                                 decls=(), body=())
        from ..lang.typecheck import SubprogramContext
        rule_ctx = SubprogramContext(typed, rule_sp)
        tc = TranslationContext(typed=typed, ctx=rule_ctx)
        term = translate_expr(tc, rule.expr)
        bound = tuple(p.name for p in rule.params)
        while term.op == "forall":
            bound = bound + term.value
            term = term.args[0]
        axioms.append(Axiom(name=rule.name, bound=bound, body=term))
    for fname, sig in typed.signatures.items():
        if not sig.is_function or not sig.post:
            continue
        fctx = typed.context(fname).runtime_view()
        params = tuple(p.name for p in sig.params)
        state = {p: var(p) for p in params}
        state["Result"] = None  # replaced below
        from ..logic import apply as apply_term
        result_term = apply_term(fname, *(var(p) for p in params))
        state["Result"] = result_term
        hyps = []
        for pre in sig.pre:
            tc = TranslationContext(typed=typed, ctx=fctx, state=dict(state))
            hyps.append(translate_expr(tc, pre))
        for post in sig.post:
            tc = TranslationContext(typed=typed, ctx=fctx, state=dict(state))
            body = translate_expr(tc, post)
            if hyps:
                body = implies(conj(*hyps), body)
            axioms.append(Axiom(name=f"{fname}.contract", bound=params,
                                body=body))
    return axioms


def _match(pattern: Term, term: Term, bound: frozenset,
           binding: Dict[str, Term]) -> bool:
    if pattern.op == "var" and pattern.value in bound:
        existing = binding.get(pattern.value)
        if existing is None:
            binding[pattern.value] = term
            return True
        return existing is term
    if pattern.op != term.op or pattern.value != term.value:
        return False
    if len(pattern.args) != len(term.args):
        return False
    return all(_match(p, t, bound, binding)
               for p, t in zip(pattern.args, term.args))


class _ProveTimeout(Exception):
    pass


class AutoProver:
    #: A prove call is bounded by ``work_budget``, never by a clock.  The
    #: name stays for readers of the old wall-clock budget (the ledger's
    #: ``prover.auto`` observer), which see no budget while it is None.
    timeout_seconds = None

    def __init__(self, typed: Optional[TypedPackage] = None,
                 subprogram_name: Optional[str] = None,
                 extra_axioms: Sequence[Axiom] = (),
                 instantiation_rounds: int = 2,
                 ground: Optional[GroundEvaluator] = None,
                 work_budget: Optional[int] = None,
                 hook=None,
                 shared=None):
        """``shared`` is an optional :class:`~repro.logic.normcache
        .NormalizationCache` carrying subterm normal forms across the VCs
        of a proof session (scoped per rule set, so the prover's extra
        rules never mix with the plain simplifier's entries).  It is only
        consulted when the type-bound hook is the canonical one derived
        from ``(typed, subprogram_name)`` -- a caller-supplied ``hook``
        changes normal forms in ways the scope key cannot see.

        ``work_budget`` bounds each :meth:`prove` call by a count of
        interval decisions, not by a clock, so a give-up is reached at
        the same point of the search on every host and every run; None
        leaves the call unbounded (the search is finite).

        An instance accumulates *search history* -- the fresh-name
        counter behind ``_forall_intro`` and the per-term memo caches --
        so proving a second goal on the same instance can take a
        different trajectory than proving it on a fresh one (fresh
        variable names feed fingerprints, and fingerprints order
        commutative arguments).  Callers that need verdicts independent
        of what else ran in the process (the proof session, the pool's
        workers) construct one prover per VC; the ``shared``
        normalization cache is the part that is safe to share, because
        a cached normal form is a pure function of (rules, term)."""
        self.typed = typed
        custom_hook = hook is not None
        if custom_hook:
            self.hook = hook
        else:
            self.hook = TypeBoundHook(typed, subprogram_name) \
                if (typed is not None and subprogram_name) else None
        # The decision procedures ask the hook about the same terms again
        # and again, and its answer is a function of the term alone.
        self._bounds = _memoized(self.hook) if self.hook is not None \
            else None
        self.ground = ground if ground is not None else GroundEvaluator(typed)
        self.axioms = (package_axioms(typed) if typed is not None else []) \
            + list(extra_axioms)
        self.instantiation_rounds = instantiation_rounds
        self.subprogram_name = subprogram_name
        self.work_budget = work_budget
        #: Interval decisions spent by the current (or last) prove call.
        self.work_spent = 0
        from ..logic import Rewriter, Rule, default_rules
        self._shared = shared if (not custom_hook and typed is not None
                                  and subprogram_name) else None
        scope = None
        if self._shared is not None:
            scope = self._shared.scope(simplifier_rules_key(
                typed, subprogram_name, extra="prover"))
        self._rewriter = Rewriter(
            default_rules(hook=self.hook)
            + [Rule("select-store-split", "arrays-prover",
                    select_store_split, ops=frozenset({"select"}))],
            shared=scope)
        self._fresh = 0
        # Per-term memo caches: the case-splitting search revisits the same
        # hypothesis terms many times.
        self._cand_cache: Dict[int, list] = {}
        self._apply_cache: Dict[int, list] = {}
        self._inst_cache: Dict[tuple, Term] = {}
        # Hot-path counters accumulated from the per-VC simplifiers
        # (each _prove call builds and discards one).
        self._hotpath = {"index_hits": 0, "index_skipped_rules": 0,
                         "cross_vc_hits": 0}

    def hotpath_counters(self) -> Dict[str, int]:
        """Aggregated instrumentation across everything this prover
        rewrote: its own rewriter plus every per-VC simplifier."""
        stats = self._rewriter.stats
        acc = self._hotpath
        return {
            "index_hits": acc["index_hits"] + stats.index_hits,
            "index_skipped_rules": (acc["index_skipped_rules"]
                                    + stats.index_skipped_rules),
            "cross_vc_hits": acc["cross_vc_hits"] + stats.cross_vc_hits,
        }

    def _candidates_of(self, terms) -> list:
        out = []
        seen = set()
        for t in terms:
            per = self._cand_cache.get(t._id)
            if per is None:
                per = _index_candidates([t])
                self._cand_cache[t._id] = per
            for c in per:
                if c._id not in seen:
                    seen.add(c._id)
                    out.append(c)
                    if len(out) >= _MAX_INDEX_CANDIDATES:
                        return out
        return out

    def _ground_applies_of(self, terms) -> list:
        out = []
        seen = set()
        for t in terms:
            per = self._apply_cache.get(t._id)
            if per is None:
                per = _collect_ground_applies([t], self.ground)
                self._apply_cache[t._id] = per
            for pair in per:
                if pair[0]._id not in seen:
                    seen.add(pair[0]._id)
                    out.append(pair)
        return out

    def _instantiate_forall(self, h: Term, cand: Term):
        key = (h._id, cand._id)
        hit = self._inst_cache.get(key)
        if hit is None:
            name = h.value[0]
            fact = substitute_simplifying(h.args[0], {name: cand})
            hit = self._rewriter.normalize(fact)
            self._inst_cache[key] = hit
        return hit

    # -- public -------------------------------------------------------------

    def prove(self, term: Term) -> ProofResult:
        self.work_spent = 0
        try:
            return self._prove(term)
        except _ProveTimeout:
            return ProofResult(False, "timeout",
                               detail=f"gave up after {self.work_budget} "
                                      f"interval decisions")

    def _prove(self, term: Term) -> ProofResult:
        if self.typed is not None and self.subprogram_name is not None:
            simplifier = Simplifier(self.typed, self.subprogram_name,
                                    shared=self._shared)
            simplified = simplifier.simplify(
                Obligation(kind="goal", term=term)).simplified
            acc = self._hotpath
            acc["index_hits"] += simplifier.index_hits
            acc["index_skipped_rules"] += simplifier.index_skipped_rules
            acc["cross_vc_hits"] += simplifier.cross_vc_hits
        else:
            simplified = term
        if simplified.is_true:
            return ProofResult(True, "simplifier")
        simplified = self._rewriter.normalize(simplified)
        if simplified.is_true:
            return ProofResult(True, "rewriting")
        hyps, concl = _split(simplified)
        return self._attempt(list(hyps), concl, depth=0,
                             rounds=self.instantiation_rounds)

    # -- core loop ------------------------------------------------------------

    def _attempt(self, hyps: List[Term], concl: Term, depth: int,
                 rounds: int) -> ProofResult:
        result = self._attempt_core(hyps, concl, depth)
        if result.proved:
            return result
        for round_no in range(rounds):
            facts = self._instantiate(hyps, concl)
            new = [f for f in facts if f not in hyps]
            if not new:
                break
            hyps = hyps + new
            result = self._attempt_core(hyps, concl, depth)
            if result.proved:
                return ProofResult(True, f"instantiate+{result.method}",
                                   detail=f"round {round_no + 1}")
        return result

    def _attempt_core(self, hyps: List[Term], concl: Term,
                      depth: int) -> ProofResult:
        if concl.is_true:
            return ProofResult(True, "trivial")
        if concl.op == "and":
            methods = []
            for part in concl.args:
                r = self._attempt_core(hyps, part, depth)
                if not r.proved:
                    return r
                methods.append(r.method)
            return ProofResult(True, "conj",
                               detail=",".join(dict.fromkeys(methods)))
        if concl.op == "implies":
            extra, inner = _split(concl)
            return self._attempt_core(hyps + list(extra), inner, depth)
        if concl.op == "or" and depth < _CASE_SPLIT_DEPTH:
            # Prove a disjunction by proving one disjunct under the negation
            # of the others.
            for i, disjunct in enumerate(concl.args):
                others = [neg(d) for j, d in enumerate(concl.args) if j != i]
                if self._attempt_core(hyps + others, disjunct,
                                      depth + 1).proved:
                    return ProofResult(True, "disj")
        if concl.op == "forall":
            # Exhaustive expansion over small literal ranges first (cheap:
            # literal indices resolve select/store chains outright), then
            # universal introduction with fresh names.
            expanded = self._expand_forall(concl)
            if expanded is not None:
                result = self._attempt_core(hyps, expanded, depth)
                if result.proved:
                    return result
            intro = self._forall_intro(concl)
            if intro is not None:
                guards, body = intro
                result = self._attempt_core(hyps + guards, body, depth)
                if result.proved:
                    return ProofResult(True, f"intro+{result.method}")
            return ProofResult(False, "none")

        # Ground evaluation.
        value = self.ground.evaluate(concl)
        if value is True:
            return ProofResult(True, "ground")
        if value is False and not hyps:
            return ProofResult(False, "ground-false",
                               detail="conclusion evaluates to false")

        # Instantiate universally quantified hypotheses at the index terms
        # the conclusion mentions (select indices, apply arguments,
        # introduced bound variables).
        flat_hyps = _flatten_hyps(hyps)
        candidates = self._candidates_of(flat_hyps + [concl])
        instantiated: List[Term] = []
        for h in flat_hyps:
            if h.op != "forall" or len(h.value) != 1:
                continue
            per_hyp = list(candidates)
            # A quantified hypothesis over a small literal range is
            # instantiated over the whole range -- candidates harvested
            # from the conclusion miss bound values that only occur inside
            # affine index expressions.
            body = h.args[0]
            if body.op == "implies":
                span = _literal_range(body.args[0], h.value[0])
                if span is not None and span[1] - span[0] < 16:
                    per_hyp += [intc(k)
                                for k in range(span[0], span[1] + 1)]
            for cand in per_hyp:
                fact = self._instantiate_forall(h, cand)
                if not fact.is_true:
                    instantiated.append(fact)
        if instantiated:
            flat_hyps = _flatten_hyps(flat_hyps + instantiated)

        # Split instantiated guarded facts (guard -> fact with provable
        # guard) into usable hypotheses.
        plain = [h for h in flat_hyps if h.op != "implies"]
        env0 = self._env_with_hook_bounds(plain + [concl],
                                          harvest_env(plain,
                                                      hook=self._bounds))
        dbm0 = build_dbm(plain, var_bounds=env0)
        usable: List[Term] = []
        for h in flat_hyps:
            if h.op == "implies":
                guard, body = h.args
                if self._guard_holds(guard, env0, dbm0):
                    usable.append(body)
                    continue
            usable.append(h)
        flat_hyps = _flatten_hyps(usable)

        # Hypothesis contradiction / intervals / difference bounds.
        env = harvest_env(flat_hyps, hook=self._bounds)
        for h in flat_hyps:
            hv = self.ground.evaluate(h)
            if hv is False:
                return ProofResult(True, "contradiction",
                                   detail="false hypothesis")
        decided = self._decide(concl, env)
        if decided is True:
            return ProofResult(True, "interval")
        env_full = self._env_with_hook_bounds(flat_hyps + [concl], env)
        dbm = build_dbm(flat_hyps, var_bounds=env_full)
        if dbm.decide(concl) is True:
            return ProofResult(True, "difference-bounds")

        # Congruence closure, seeded with ground values of applications.
        cc = CongruenceClosure()
        for node in self._ground_applies_of(flat_hyps + [concl]):
            cc.assert_equal(node[0], node[1])
        for h in flat_hyps:
            if h.op == "eq":
                cc.assert_equal(h.args[0], h.args[1])
            elif h.op == "not" and h.args[0].op == "eq":
                cc.assert_disequal(h.args[0].args[0], h.args[0].args[1])
            elif h.op == "iff":
                cc.assert_equal(h.args[0], h.args[1])
            elif h.op not in ("lt", "le", "or", "forall"):
                cc.assert_equal(h, TRUE)
        if cc.contradiction:
            return ProofResult(True, "congruence",
                               detail="contradictory hypotheses")
        if concl.op == "eq" and cc.are_equal(concl.args[0], concl.args[1]):
            return ProofResult(True, "congruence")
        if concl.op == "not" and concl.args[0].op == "eq" and \
                cc.are_disequal(concl.args[0].args[0], concl.args[0].args[1]):
            return ProofResult(True, "congruence")
        if cc.are_equal(concl, TRUE):
            return ProofResult(True, "congruence")

        # Bounded case split on a disjunctive hypothesis (only ones
        # sharing variables with the conclusion are worth splitting).
        if depth < _CASE_SPLIT_DEPTH:
            concl_vars = concl.free_vars()
            for i, h in enumerate(flat_hyps):
                if h.op == "or" and len(h.args) <= 4 and \
                        (h.free_vars() & concl_vars):
                    rest = flat_hyps[:i] + flat_hyps[i + 1:]
                    if all(self._attempt_core(rest + [d], concl, depth + 1
                                              ).proved
                           for d in h.args):
                        return ProofResult(True, "split")
            if concl.op == "ite":
                c, t, e = concl.args
                if self._attempt_core(flat_hyps + [c], t, depth + 1).proved \
                        and self._attempt_core(flat_hyps + [neg(c)], e,
                                               depth + 1).proved:
                    return ProofResult(True, "split")
            # Case split on an ite *subterm* of the conclusion (arises from
            # select-over-store splitting under quantifiers).
            ite_node = _first_ite(concl)
            if ite_node is not None:
                c, t, e = ite_node.args
                then_concl = _replace_node(concl, ite_node, t)
                else_concl = _replace_node(concl, ite_node, e)
                if self._attempt_core(flat_hyps + [c], then_concl,
                                      depth + 1).proved and \
                        self._attempt_core(flat_hyps + [neg(c)], else_concl,
                                           depth + 1).proved:
                    return ProofResult(True, "split-ite")

        return ProofResult(False, "none")

    def _env_with_hook_bounds(self, terms, env):
        """Augment a hypothesis-derived environment with type-derived
        (hook) bounds for every free variable -- the rewriter may have
        erased type-implied hypotheses as trivially true, but the
        difference-bound engine still needs the bounds."""
        if self.hook is None:
            return env
        out = dict(env)
        for t in terms:
            for name in t.free_vars():
                if name in out:
                    continue
                bounds = self._bounds(var(name))
                if bounds is not None:
                    out[name] = bounds
        return out

    def _decide(self, concl: Term, env) -> Optional[bool]:
        """:func:`env_decide`, charged one unit of the work budget."""
        if self.work_budget is not None and \
                self.work_spent >= self.work_budget:
            raise _ProveTimeout()
        self.work_spent += 1
        return env_decide(concl, env, hook=self._bounds)

    def _guard_holds(self, guard: Term, env, dbm) -> bool:
        parts = guard.args if guard.op == "and" else (guard,)
        for part in parts:
            if self.ground.evaluate(part) is True:
                continue
            if self._decide(part, env) is True:
                continue
            if dbm.decide(part) is True:
                continue
            return False
        return True

    # -- quantifier handling -----------------------------------------------------

    def _forall_intro(self, term: Term
                      ) -> Optional[Tuple[List[Term], Term]]:
        """Universal introduction: rename bound vars fresh, return the range
        guards as hypotheses plus the body."""
        self._fresh += 1
        mapping = {name: var(f"{name}!{self._fresh}") for name in term.value}
        body = substitute(term.args[0], mapping)
        guards: List[Term] = []
        while body.op == "implies":
            guard, body = body.args
            guards.extend(guard.args if guard.op == "and" else [guard])
        return guards, body

    def _expand_forall(self, term: Term) -> Optional[Term]:
        """Expand ``forall k: (lo <= k <= hi) -> body`` over a small literal
        range into a conjunction."""
        body = term.args[0]
        if body.op != "implies" or len(term.value) != 1:
            return None
        name = term.value[0]
        guard, inner = body.args
        bounds = _literal_range(guard, name)
        if bounds is None:
            return None
        lo, hi = bounds
        if hi - lo + 1 > _MAX_FORALL_INSTANCES:
            return None
        parts = [substitute_simplifying(inner, {name: intc(k)})
                 for k in range(lo, hi + 1)]
        return conj(*parts)

    # -- axiom instantiation -----------------------------------------------------

    def _instantiate(self, hyps: List[Term], concl: Term) -> List[Term]:
        applications = _collect_applies(hyps + [concl])
        facts: List[Term] = []
        for axiom in self.axioms:
            if not axiom.bound:
                facts.append(axiom.body)
                continue
            bound = frozenset(axiom.bound)
            patterns = [t
                        for group in _collect_applies([axiom.body]).values()
                        for t in group
                        if any(v in bound
                               for a in t.args for v in a.free_vars())]
            for pattern in patterns:
                for target in applications.get(pattern.value, []):
                    binding: Dict[str, Term] = {}
                    if len(pattern.args) != len(target.args):
                        continue
                    if all(_match(p, t, bound, binding)
                           for p, t in zip(pattern.args, target.args)):
                        if set(binding) == set(axiom.bound):
                            fact = substitute_simplifying(axiom.body, binding)
                            facts.append(fact)
                            if len(facts) >= _MAX_INSTANTIATIONS:
                                return facts
        return facts


def _memoized(hook):
    """``hook`` with its answers memoized by term."""
    memo: Dict[int, Optional[tuple]] = {}

    def bounds(term: Term) -> Optional[tuple]:
        ident = term._id
        if ident in memo:
            return memo[ident]
        found = memo[ident] = hook(term)
        return found

    return bounds


def _split(term: Term) -> Tuple[Tuple[Term, ...], Term]:
    """Split nested implications into (hypotheses, conclusion)."""
    hyps: List[Term] = []
    while term.op == "implies":
        h, term = term.args
        if h.op == "and":
            hyps.extend(h.args)
        else:
            hyps.append(h)
    return tuple(hyps), term


def _flatten_hyps(hyps: Sequence[Term]) -> List[Term]:
    out: List[Term] = []
    for h in hyps:
        if h.op == "and":
            out.extend(h.args)
        else:
            out.append(h)
    return out


def _literal_range(guard: Term, name: str) -> Optional[Tuple[int, int]]:
    lo = hi = None
    parts = guard.args if guard.op == "and" else (guard,)
    for part in parts:
        if part.op == "le":
            a, b = part.args
            if a.op == "int" and b.op == "var" and b.value == name:
                lo = a.value
            elif b.op == "int" and a.op == "var" and a.value == name:
                hi = b.value
    if lo is None or hi is None:
        return None
    return lo, hi


def _first_ite(term: Term) -> Optional[Term]:
    for node in term.iter_dag():
        if node.op == "ite":
            return node
    return None


def _replace_node(term: Term, target: Term, replacement: Term) -> Term:
    cache: Dict[int, Term] = {target._id: replacement}

    def go(node: Term) -> Term:
        hit = cache.get(node._id)
        if hit is not None:
            return hit
        if not node.args:
            cache[node._id] = node
            return node
        new_args = tuple(go(a) for a in node.args)
        if all(n is o for n, o in zip(new_args, node.args)):
            out = node
        else:
            out = rebuild_smart(node.op, new_args, node.value)
        cache[node._id] = out
        return out

    return go(term)


_MAX_INDEX_CANDIDATES = 48


def _index_candidates(terms: Sequence[Term]) -> List[Term]:
    """Terms worth instantiating quantified hypotheses at: indices of
    selects/stores and arguments of unary applications."""
    out: List[Term] = []
    seen = set()

    def note(t: Term):
        if t._id not in seen and len(out) < _MAX_INDEX_CANDIDATES:
            seen.add(t._id)
            out.append(t)

    for t in terms:
        for node in t.iter_dag():
            if node.op == "select":
                note(node.args[1])
            elif node.op == "store":
                note(node.args[1])
            elif node.op == "apply" and len(node.args) == 1:
                note(node.args[0])
            elif node.op == "var" and "!" in str(node.value):
                note(node)
    return out


def _collect_ground_applies(terms: Sequence[Term], ground) -> List[Tuple]:
    """(application term, literal value) pairs for congruence seeding."""
    out = []
    seen = set()
    for t in terms:
        for node in t.iter_dag():
            if node.op == "apply" and node._id not in seen:
                seen.add(node._id)
                value = ground.evaluate(node)
                if isinstance(value, bool):
                    out.append((node, boolc(value)))
                elif isinstance(value, int):
                    out.append((node, intc(value)))
    return out


def _collect_applies(terms: Sequence[Term]) -> Dict[str, List[Term]]:
    out: Dict[str, List[Term]] = {}
    seen = set()
    for t in terms:
        for node in t.iter_dag():
            if node.op == "apply" and node._id not in seen:
                seen.add(node._id)
                out.setdefault(node.value, []).append(node)
    return out
