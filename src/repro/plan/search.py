"""Best-first discovery of verification-refactoring chains (DESIGN.md §17).

The planner automates the loop the paper's section 6 describes a human
driving: look at the metrics, pick the transformation that moves the
program toward its specification's architecture, prove it preserved
semantics, repeat.  Four stages per iteration:

1. **Enumerate** -- candidate transformations from the library's site
   enumerators, the user-specified catalog, and the architectural map's
   unmatched-name pairs (:mod:`repro.plan.candidates`);
2. **Score** -- each candidate's result state is measured (match ratio,
   size, complexity; examiner/prover probe for the leaders) by pure
   module-level functions fanned out as obligations over the configured
   scheduler backend (:mod:`repro.plan.scoring`);
3. **Select** -- a beam-bounded best-first frontier orders states by
   score with seeded content-addressed tie-breaks
   (:mod:`repro.plan.frontier`).  Best-first, not greedy: the measured
   manual chain's score *dips* at the word-packing reversal (match
   drops while the representation changes underneath), so a hill
   climber stalls exactly where the paper's insight lives;
4. **Validate** -- when a state is popped for expansion, its incoming
   edge is replayed on a transient :class:`RefactoringEngine`, which
   checks the semantics-preservation theorem.  A failed theorem
   discards the state (the parent package is untouched -- rollback is
   free because nothing was committed) and the search continues from
   the frontier.  Every ancestor of a popped state was itself popped,
   so every edge of the returned chain carries a checked theorem.

Determinism: enumeration order is structural, scoring is wall-clock
free, scheduler outcomes return in submission order, and all ordering
ties break on ``make_key(seed, fingerprint)``.  The discovered chain is
therefore bit-identical across serial, process, and remote
execution -- asserted by ``benchmarks/bench_plan.py``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..exec import (
    CallPayload, ExecConfig, Obligation, coerce_exec_config, make_key,
    package_fingerprint, theory_fingerprint,
)
from ..lang import TypedPackage, analyze, ast, print_package
from ..refactor import RefactoringEngine, TransformationError
from .cache import PlanCache, scoring_digest
from .candidates import Candidate, enumerate_candidates
from .catalog import Catalog
from .frontier import Frontier, PlanStep, PlanState
from .scoring import (
    DEFAULT_PROBE_TREE_BYTES, DEFAULT_PROBE_VCS, ScoreWeights,
    StateEvaluation, candidate_token, evaluate_candidate,
)

__all__ = ["Planner", "PlanResult"]

#: Obligation kind for candidate-state measurement.
PLAN_EVAL = "plan_eval"


@dataclass
class PlanResult:
    """What a planning run discovered."""

    found: bool
    steps: List[PlanStep]
    #: Digest over the step tokens + final state: two runs agreeing on
    #: this agree on the entire chain.
    chain_digest: str
    final_fingerprint: str
    final_evaluation: Optional[StateEvaluation]
    final_source: Optional[str]
    expansions: int
    evaluations: int
    validations: int
    #: Theorem-rejected edges: (token, description, reason) -- the
    #: planner's rollback log.
    rejected: List[Tuple[str, str, str]] = field(default_factory=list)

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def to_json(self) -> dict:
        return {
            "found": self.found,
            "steps": [s.to_json() for s in self.steps],
            "chain_digest": self.chain_digest,
            "final_fingerprint": self.final_fingerprint,
            "final_evaluation":
                None if self.final_evaluation is None
                else self.final_evaluation.to_json(),
            "expansions": self.expansions,
            "evaluations": self.evaluations,
            "validations": self.validations,
            "rejected": [list(r) for r in self.rejected],
        }


class Planner:
    """Search for a transformation chain from ``package`` toward the
    architecture of ``reference`` (a specification theory)."""

    def __init__(self, package: ast.Package, observables: Sequence[str],
                 reference, catalog: Optional[Catalog] = None,
                 weights: Optional[ScoreWeights] = None,
                 beam_width: int = 12, top_k: int = 6,
                 max_steps: int = 64, max_expansions: int = 256,
                 goal_match: Optional[float] = None,
                 check: str = "differential", trials: int = 2,
                 seed: int = 20090701, samplers: Optional[dict] = None,
                 exec: Optional[ExecConfig] = None,
                 probe_tree_bytes: int = DEFAULT_PROBE_TREE_BYTES,
                 probe_vcs: int = DEFAULT_PROBE_VCS,
                 plan_cache=None,
                 log: Optional[Callable[[str], None]] = None):
        """``goal_match``: alternative/additional goal condition -- any
        state whose match fraction reaches it completes the plan (used
        when the catalog has no ``goal`` entry).  ``check``/``trials``/
        ``samplers``/``seed`` configure the transient validation engines
        exactly as they would a manual
        :class:`~repro.refactor.engine.RefactoringEngine`.
        ``plan_cache``: a path (or a :class:`~repro.plan.cache.PlanCache`)
        for the persistent probe/score and theorem-verdict store --
        replanning the same program replays its scored frontier warm
        (DESIGN.md §18)."""
        self.typed = analyze(package)
        self.observables = list(observables)
        self.reference = reference
        self.catalog = catalog if catalog is not None else Catalog()
        self.weights = weights if weights is not None else ScoreWeights()
        self.beam_width = beam_width
        self.top_k = top_k
        self.max_steps = max_steps
        self.max_expansions = max_expansions
        self.goal_match = goal_match
        self.check = check
        self.trials = trials
        self.seed = seed
        self.samplers = samplers
        self.exec = coerce_exec_config(exec, owner="Planner")
        self.probe_tree_bytes = probe_tree_bytes
        self.probe_vcs = probe_vcs
        self._log = log or (lambda message: None)
        self._reference_fp = "" if reference is None \
            else theory_fingerprint(reference)
        if plan_cache is None or isinstance(plan_cache, PlanCache):
            self._cache: Optional[PlanCache] = plan_cache
        else:
            self._cache = PlanCache(plan_cache, scoring_digest(
                self._reference_fp, probe_tree_bytes, probe_vcs,
                check, trials, seed, self.observables),
                self.exec.resolved_telemetry())
        self._root_fp = ""
        self._evaluations = 0
        self._validations = 0
        #: Typed forms of validated states, keyed by fingerprint
        #: (validation already analyzed the package; expansion reuses it).
        self._typed_of: Dict[str, TypedPackage] = {}

    # -- search -------------------------------------------------------------

    def plan(self) -> PlanResult:
        try:
            return self._plan()
        finally:
            # Persist whatever was learned even when the search raises:
            # a partial cache still warms the next replan.
            if self._cache is not None:
                self._cache.save()

    def _plan(self) -> PlanResult:
        root_fp = self._root_fp = package_fingerprint(self.typed)
        root_eval = StateEvaluation.from_json(self._measure_root(root_fp))
        self._typed_of[root_fp] = self.typed
        frontier = Frontier(self.beam_width)
        frontier.push(PlanState(
            fingerprint=root_fp, evaluation=root_eval,
            score=root_eval.score(self.weights),
            tie=self._tie(root_fp), depth=0, chain=(),
            applied_entries=frozenset(), package=self.typed.package))
        expansions = 0
        rejected: List[Tuple[str, str, str]] = []
        best: Optional[PlanState] = None

        while len(frontier):
            state = frontier.pop()
            if state.fingerprint in frontier.visited and not state.goal:
                continue
            if not self._validate(state, rejected):
                continue
            frontier.visited.add(state.fingerprint)
            if best is None or state.score > best.score:
                best = state
            if self._is_goal(state):
                return self._result(state, found=True,
                                    expansions=expansions,
                                    rejected=rejected)
            if state.depth >= self.max_steps or \
                    expansions >= self.max_expansions:
                continue
            expansions += 1
            for child in self._expand(state, frontier.visited):
                frontier.push(child)
            frontier.prune()

        return self._result(best, found=False, expansions=expansions,
                            rejected=rejected)

    # -- stages -------------------------------------------------------------

    def _validate(self, state: PlanState,
                  rejected: List[Tuple[str, str, str]]) -> bool:
        """Replay the state's incoming edge with the theorem checked.

        Success materializes the state's package (and typed form) from
        the replay; failure leaves the parent untouched and logs the
        rejection.  The root validates trivially."""
        if state.transformation is None:
            return True
        token = candidate_token(state.transformation)
        cache_key = None
        if self._cache is not None:
            parent_fp = state.chain[-2].fingerprint \
                if len(state.chain) >= 2 else self._root_fp
            cache_key = PlanCache.validation_key(
                parent_fp, state.fingerprint, token, self.check,
                self.trials, self.seed, self.observables)
            verdict = self._cache.get_validation(cache_key)
            if verdict is not None:
                # A cached verdict still counts as a validation: the
                # edge was checked, just not in this process.
                if not verdict["ok"]:
                    self._validations += 1
                    rejected.append((token,
                                     state.transformation.describe(),
                                     verdict.get("reason", "")))
                    self._log(f"rejected (cached theorem): "
                              f"{state.transformation.describe()}: "
                              f"{verdict.get('reason', '')}")
                    return False
                if self._replay_accepted(state, parent_fp):
                    self._validations += 1
                    last = state.chain[-1]
                    self._log(f"step {state.depth}: {last.description} "
                              f"(score {state.score:+.4f}, "
                              f"match {last.match_percent:.1f}%, "
                              f"cached theorem)")
                    return True
                # Replay disagreed with the cached child fingerprint:
                # distrust the entry and run the full validation below.
        # check_observables: an automated search composes hundreds of
        # steps, so every accepted edge carries the end-to-end theorem
        # over the observables -- a narrow affected-subprogram check
        # passing while the composition drifts is not acceptable here.
        engine = RefactoringEngine(
            state.parent_package, observables=self.observables,
            check=self.check, trials=self.trials, seed=self.seed,
            samplers=self.samplers, exec=self.exec,
            check_observables=True)
        try:
            engine.apply(state.transformation)
        except TransformationError as exc:
            self._validations += 1
            rejected.append((token, state.transformation.describe(),
                             str(exc)))
            if cache_key is not None:
                self._cache.put_validation(cache_key, False, str(exc))
            self._log(f"rejected (theorem): "
                      f"{state.transformation.describe()}: {exc}")
            return False
        self._validations += 1
        if cache_key is not None:
            self._cache.put_validation(cache_key, True)
        state.package = engine.package
        self._typed_of[state.fingerprint] = engine.typed
        last = state.chain[-1]
        self._log(f"step {state.depth}: {last.description} "
                  f"(score {state.score:+.4f}, "
                  f"match {last.match_percent:.1f}%)")
        return True

    def _replay_accepted(self, state: PlanState, parent_fp: str) -> bool:
        """Materialize a cached-accepted edge mechanically: apply the
        transformation without the differential trials (the theorem was
        checked when the verdict was cached), then double-check the
        result against the fingerprint the evaluation promised.  False
        -- with nothing mutated -- sends the caller to full validation."""
        try:
            typed_parent = self._typed_of.get(parent_fp)
            if typed_parent is None:
                typed_parent = analyze(state.parent_package)
                self._typed_of[parent_fp] = typed_parent
            new_package = state.transformation.apply(typed_parent)
            typed = analyze(new_package)
        except Exception:   # noqa: BLE001 - cached-replay fault boundary
            return False
        if package_fingerprint(typed) != state.fingerprint:
            return False
        state.package = new_package
        self._typed_of[state.fingerprint] = typed
        return True

    def _expand(self, state: PlanState, visited) -> List[PlanState]:
        typed = self._typed_of.get(state.fingerprint)
        if typed is None:
            typed = analyze(state.package)
            self._typed_of[state.fingerprint] = typed
        candidates = enumerate_candidates(
            typed, state.evaluation.match_fraction, self.catalog,
            state.applied_entries, self.reference,
            observables=self.observables)
        if not candidates:
            return []
        evaluations = self._measure(state, candidates, probe=False)

        scored: List[Tuple[float, str, Candidate, StateEvaluation]] = []
        seen: set = set()
        for candidate, evaluation in zip(candidates, evaluations):
            if not evaluation.applicable:
                continue
            fp = evaluation.fingerprint
            if not candidate.goal:
                # No-ops and already-expanded states add nothing; goal
                # candidates are exempt (reaching the goal *is* the
                # point, even if its state were somehow seen).
                if fp == state.fingerprint or fp in visited:
                    continue
            if fp in seen:
                continue
            seen.add(fp)
            scored.append((evaluation.static_score(self.weights),
                           self._tie(fp), candidate, evaluation))
        scored.sort(key=lambda item: (-item[0], item[1]))

        # The probe tier: only the static leaders earn the examiner +
        # prover pass (same fan-out path).
        leaders = scored[:self.top_k]
        if leaders:
            probed = self._measure(
                state, [c for _, _, c, _ in leaders], probe=True)
            refreshed = []
            for (_, tie, candidate, evaluation), probe_eval in \
                    zip(leaders, probed):
                if probe_eval.applicable:
                    evaluation = probe_eval
                refreshed.append(
                    (evaluation.static_score(self.weights), tie,
                     candidate, evaluation))
            scored = refreshed + scored[self.top_k:]

        children = []
        for _, tie, candidate, evaluation in scored:
            entries = state.applied_entries if candidate.entry is None \
                else state.applied_entries | {candidate.entry}
            step = PlanStep(
                token=candidate_token(candidate.transformation),
                description=candidate.transformation.describe(),
                category=candidate.transformation.category,
                origin=candidate.origin, entry=candidate.entry,
                score=evaluation.score(self.weights),
                match_percent=100.0 * evaluation.match_fraction,
                fingerprint=evaluation.fingerprint)
            children.append(PlanState(
                fingerprint=evaluation.fingerprint,
                evaluation=evaluation,
                score=evaluation.score(self.weights), tie=tie,
                depth=state.depth + 1, chain=state.chain + (step,),
                applied_entries=frozenset(entries), goal=candidate.goal,
                parent_package=state.package,
                transformation=candidate.transformation,
                origin=candidate.origin, entry=candidate.entry))
        return children

    def _measure(self, state: PlanState, candidates: List[Candidate],
                 probe: bool) -> List[StateEvaluation]:
        """Fan candidate measurement out over the configured scheduler."""
        parent_match = (state.evaluation.match_fraction,
                        state.evaluation.match_total)
        obligations = [
            self._obligation(state, candidate, parent_match, probe)
            for candidate in candidates]
        self._evaluations += len(obligations)
        results: List[Optional[StateEvaluation]] = [None] * len(obligations)
        pending: List[Tuple[int, Obligation]] = []
        for i, obligation in enumerate(obligations):
            cached = None if self._cache is None \
                else self._cache.get_evaluation(obligation.cache_key)
            if cached is not None:
                results[i] = StateEvaluation.from_json(cached)
            else:
                pending.append((i, obligation))
        outcomes = self.exec.scheduler().run(
            [obligation for _, obligation in pending]) if pending else []
        for (i, obligation), outcome in zip(pending, outcomes):
            if not outcome.ok:
                # A crashed/errored evaluation is treated as an
                # inapplicable candidate: the chain must never depend on
                # a state we could not measure.  Never cached -- a
                # transient fault must not poison later replans.
                results[i] = StateEvaluation(
                    applicable=False,
                    reason=f"evaluation {outcome.status}: "
                           f"{outcome.error or ''}")
            else:
                results[i] = StateEvaluation.from_json(outcome.value)
                if self._cache is not None:
                    self._cache.put_evaluation(obligation.cache_key,
                                               outcome.value)
        return results

    def _obligation(self, state: PlanState, candidate: Candidate,
                    parent_match, probe: bool) -> Obligation:
        transformation = candidate.transformation
        token = candidate_token(transformation)
        tier = f"probe:{self.probe_tree_bytes}:{self.probe_vcs}" \
            if probe else "static"
        key = make_key(PLAN_EVAL, state.fingerprint, token,
                       self._reference_fp, repr(parent_match), tier)
        kwargs = dict(parent_match=parent_match, probe=probe,
                      probe_tree_bytes=self.probe_tree_bytes,
                      probe_vcs=self.probe_vcs)
        package = state.package

        def thunk(package=package, fp=state.fingerprint,
                  transformation=transformation, kwargs=kwargs):
            return evaluate_candidate(package, fp, transformation,
                                      self.reference, **kwargs)

        return Obligation(
            kind=PLAN_EVAL, label=f"eval:{transformation.describe()}",
            thunk=thunk, cache_key=key,
            encode=_identity, decode=_identity,
            payload=CallPayload(
                fn=evaluate_candidate,
                args=(package, state.fingerprint, transformation,
                      self.reference),
                kwargs=tuple(sorted(kwargs.items()))))

    def _measure_root(self, root_fp: str) -> dict:
        self._evaluations += 1
        key = make_key(PLAN_EVAL, root_fp, "<root>", self._reference_fp,
                       "None",
                       f"probe:{self.probe_tree_bytes}:{self.probe_vcs}")
        if self._cache is not None:
            cached = self._cache.get_evaluation(key)
            if cached is not None:
                return cached
        value = evaluate_candidate(
            self.typed.package, root_fp, None, self.reference,
            probe=True, probe_tree_bytes=self.probe_tree_bytes,
            probe_vcs=self.probe_vcs)
        if self._cache is not None:
            self._cache.put_evaluation(key, value)
        return value

    # -- helpers ------------------------------------------------------------

    def _tie(self, fingerprint: str) -> str:
        return make_key(str(self.seed), fingerprint)

    def _is_goal(self, state: PlanState) -> bool:
        if state.goal:
            return True
        return self.goal_match is not None and \
            state.evaluation.match_fraction >= self.goal_match

    def _result(self, state: Optional[PlanState], found: bool,
                expansions: int, rejected) -> PlanResult:
        steps = list(state.chain) if state is not None else []
        final_fp = state.fingerprint if state is not None else ""
        digest = make_key("plan_chain", *[s.token for s in steps], final_fp)
        source = None
        if state is not None and state.package is not None:
            source = print_package(state.package)
        return PlanResult(
            found=found, steps=steps, chain_digest=digest,
            final_fingerprint=final_fp,
            final_evaluation=state.evaluation if state is not None else None,
            final_source=source,
            expansions=expansions, evaluations=self._evaluations,
            validations=self._validations, rejected=list(rejected))


def _identity(value):
    """JSON codec for evaluations, which already are plain dicts."""
    return value
