"""Interactive proof tactics.

The paper reports that VCs the tools could not discharge automatically
needed "quite straightforward manual intervention, usually involving
either the application of preconditions or induction on loop invariants"
(6.2.3), and that implication lemmas needed "expansion of function
definitions, introduction of predicates over types, or application of
extensionality" (6.2.4).

We model that human guidance as *proof scripts*: small lists of tactic
steps applied to a VC before re-running the automatic prover.  The tactic
vocabulary mirrors the manual steps the paper lists:

``Expand(f)``            definition expansion: replace ``f(args)`` by f's
                         symbolic summary instantiated at the arguments
``Cases(var, lo, hi)``   case split a variable over a literal range
``Instantiate(rule, {var: value})``  manual axiom instantiation
``Extensionality()``     turn an array equality goal into element-wise
                         goals over the declared index range
``Normalize()``          re-run the rewriter

A script succeeding means the VC is *discharged interactively*; the
session records it separately from automatic discharges so the
automatic/interactive split (86.6% in the paper) is measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..equiv.symbolic import SymbolicExecutor, UnsupportedProgram
from ..lang import TypedPackage
from ..logic import (
    Term, conj, eq, implies, intc, rebuild_smart, select,
    substitute_simplifying,
)
from .auto import WORK_BUDGET, AutoProver, ProofResult

__all__ = ["Tactic", "Expand", "Cases", "CasesVar", "Instantiate",
           "Extensionality", "Normalize", "ProofScript",
           "InteractiveProver"]


class Tactic:
    """Base class: a tactic maps one goal to a list of subgoals."""

    def apply(self, goals: List[Term], prover: "InteractiveProver"
              ) -> List[Term]:
        raise NotImplementedError


@dataclass(frozen=True)
class Expand(Tactic):
    function_name: str

    def apply(self, goals, prover):
        return [prover.expand_function(g, self.function_name) for g in goals]


@dataclass(frozen=True)
class Cases(Tactic):
    """Split on every value of ``var_name`` in ``lo .. hi``."""

    var_name: str
    lo: int
    hi: int

    def apply(self, goals, prover):
        out = []
        for g in goals:
            if self.var_name not in g.free_vars():
                out.append(g)
                continue
            for value in range(self.lo, self.hi + 1):
                out.append(substitute_simplifying(
                    g, {self.var_name: intc(value)}))
        return out


@dataclass(frozen=True)
class CasesVar(Tactic):
    """Split on every value of each free variable whose *base* name matches
    (fresh variables carry ``name%k`` decorations after loop havoc; the
    human proving interactively says "case split on C", so the tactic
    matches the base name)."""

    base_name: str
    lo: int
    hi: int

    def apply(self, goals, prover):
        out = []
        for g in goals:
            matching = [v for v in g.free_vars()
                        if str(v).split("%")[0].split("!")[0]
                        == self.base_name]
            if not matching:
                out.append(g)
                continue
            expanded = [g]
            for var_name in matching:
                expanded = [
                    substitute_simplifying(e, {var_name: intc(value)})
                    for e in expanded
                    for value in range(self.lo, self.hi + 1)]
            out.extend(expanded)
        return out


@dataclass(frozen=True)
class Instantiate(Tactic):
    rule_name: str
    binding: Tuple[Tuple[str, int], ...]  # ((var, value), ...)

    def apply(self, goals, prover):
        axiom = prover.axiom_named(self.rule_name)
        mapping = {name: intc(value) for name, value in self.binding}
        fact = substitute_simplifying(axiom.body, mapping)
        return [implies(fact, g) for g in goals]


@dataclass(frozen=True)
class Extensionality(Tactic):
    """Array equality -> element-wise equalities over ``0 .. length-1``."""

    length: int

    def apply(self, goals, prover):
        out = []
        for g in goals:
            hyps, concl = _split_goal(g)
            if concl.op == "eq":
                a, b = concl.args
                parts = [eq(select(a, intc(k)), select(b, intc(k)))
                         for k in range(self.length)]
                concl = conj(*parts)
                g = _rebuild_goal(hyps, concl)
            out.append(g)
        return out


@dataclass(frozen=True)
class Normalize(Tactic):
    def apply(self, goals, prover):
        from ..logic import Rewriter, default_rules
        rewriter = Rewriter(default_rules())
        return [rewriter.normalize(g) for g in goals]


@dataclass(frozen=True)
class ProofScript:
    """A named, ordered list of tactic steps for one stubborn VC family."""

    name: str
    tactics: Tuple[Tactic, ...]

    @property
    def steps(self) -> int:
        return len(self.tactics)


def _split_goal(goal: Term):
    hyps = []
    while goal.op == "implies":
        hyps.append(goal.args[0])
        goal = goal.args[1]
    return hyps, goal


def _rebuild_goal(hyps, concl):
    for h in reversed(hyps):
        concl = implies(h, concl)
    return concl


class InteractiveProver:
    """Applies proof scripts, then closes subgoals with the auto prover."""

    def __init__(self, typed: TypedPackage,
                 subprogram_name: Optional[str] = None,
                 shared=None):
        self.typed = typed
        # Each subgoal gets the session's budget: subgoal proofs are
        # small (at most 977 decisions on the AES proof).
        self.auto = AutoProver(typed, subprogram_name=subprogram_name,
                               work_budget=WORK_BUDGET, shared=shared)
        self._symbolic = SymbolicExecutor(typed)

    def axiom_named(self, name: str):
        for axiom in self.auto.axioms:
            if axiom.name == name:
                return axiom
        raise KeyError(f"no axiom named {name!r}")

    def expand_function(self, goal: Term, fname: str) -> Term:
        sig = self.typed.signatures.get(fname)
        if sig is None or not sig.is_function:
            raise KeyError(f"{fname} is not a defined function")
        try:
            summary = self._symbolic.execute_cached(fname)
        except UnsupportedProgram as exc:
            raise KeyError(f"cannot expand {fname}: {exc}")
        body = summary.outputs["Result"]
        params = [p.name for p in sig.params]

        def rewrite(term: Term) -> Term:
            if not term.args:
                return term
            new_args = tuple(rewrite(a) for a in term.args)
            if all(n is o for n, o in zip(new_args, term.args)):
                rebuilt = term
            else:
                rebuilt = rebuild_smart(term.op, new_args, term.value)
            if rebuilt.op == "apply" and rebuilt.value == fname:
                mapping = dict(zip(params, rebuilt.args))
                return substitute_simplifying(body, mapping)
            return rebuilt

        return rewrite(goal)

    def run_script(self, goal: Term, script: ProofScript) -> ProofResult:
        goals = [goal]
        for tactic in script.tactics:
            goals = tactic.apply(goals, self)
        for g in goals:
            result = self.auto.prove(g)
            if not result.proved:
                return ProofResult(
                    False, "interactive-failed",
                    detail=f"script {script.name}: subgoal not closed "
                           f"({result.method})")
        return ProofResult(True, "interactive",
                           detail=f"script {script.name}, "
                                  f"{script.steps} steps, "
                                  f"{len(goals)} subgoals")
