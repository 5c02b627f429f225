"""Candidate scoring for the automated planner (DESIGN.md §17).

The score of a program state composes the metrics the repo already
computes -- exactly the analyzer outputs the paper's human read off the
metrics dashboard before choosing the next refactoring:

* the **spec-structure match ratio** (:mod:`repro.extract.matchratio`),
  the primary "amenable to proof" gradient (figure 2(f): 4.7% on the
  optimized AES, 93.0% after the manual chain);
* **element/complexity metrics** (logical SLOC, average McCabe) -- small,
  simple states verify more cheaply;
* **VC metrics** from a *budgeted* examiner probe (``max_tree_bytes``
  capped): the log of the simplification work units, plus a flat penalty
  while analysis is still infeasible under the budget;
* an **auto-discharge probe**: the fraction of the budgeted probe's VCs
  discharged mechanically (simplifier discharges plus a bounded sample
  pushed through the :class:`~repro.prover.auto.AutoProver`), the cheap
  stand-in for the paper's auto-discharge percentage.

Two tiers, after genec's layered ``VerificationEngine`` (cheap layers
gate expensive ones): the *static* tier (match + elements + complexity)
ranks every enumerated candidate; only the leaders earn the *probe* tier
(examiner + prover).  Evaluation is a pure function of (package,
transformation, weights, probe budgets): no wall clocks, no prover
budgets (the probe runs the auto prover with no work budget -- its
search is finite and its caps are deterministic), so scores are
bit-identical across the serial and process backends.

:func:`evaluate_candidate` is module-level and operates on picklable
arguments, so the planner fans evaluations out as Obligations carrying
:class:`~repro.exec.payload.CallPayload` -- candidate scoring rides the
process pool for free.  A shipped evaluation reads from its worker's own
search memo, which lives as long as the worker: one search.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..exec.payload import worker_state
from .reuse import SearchMemo

__all__ = [
    "ScoreWeights", "StateEvaluation", "evaluate_candidate",
    "candidate_token", "DEFAULT_PROBE_TREE_BYTES", "DEFAULT_PROBE_VCS",
]

#: Examiner tree budget for the probe tier: large enough that mid-chain
#: states analyze, small enough that the worst (fully unrolled) state
#: bails out in ~0.1 s.
DEFAULT_PROBE_TREE_BYTES = 1_000_000

#: How many of the probe's undischarged VCs (smallest simplified residue
#: first) are pushed through the auto prover.
DEFAULT_PROBE_VCS = 6


@dataclass(frozen=True)
class ScoreWeights:
    """Linear weights over the normalized metric components.

    Defaults are calibrated on the manual AES chain (figure 2): the match
    ratio dominates, SLOC/McCabe prefer smaller and simpler states among
    equal-match ones, and the probe terms break ties toward states whose
    VCs are small and mechanically dischargeable."""

    match: float = 2.0        # per unit of match fraction (0..1)
    sloc: float = 0.0002      # per logical source line, subtracted
    mccabe: float = 0.02      # per average McCabe point, subtracted
    work: float = 0.03        # per log10 simplification work unit, subtracted
    probe: float = 0.2        # per unit of probe auto-discharge fraction
    infeasible: float = 0.05  # flat penalty while the probe is infeasible

    def token(self) -> str:
        """Stable serialization for obligation cache keys."""
        return repr(tuple(getattr(self, f.name)
                          for f in dataclasses.fields(self)))


@dataclass(frozen=True)
class StateEvaluation:
    """The measured components of one candidate (or root) state."""

    applicable: bool
    reason: str = ""                 # why not, when inapplicable
    fingerprint: str = ""            # content digest of the result state
    match_fraction: float = 0.0
    match_total: int = 0
    logical_sloc: int = 0
    subprograms: int = 0
    average_mccabe: float = 0.0
    #: Probe tier; ``None`` until the state earns the expensive pass.
    feasible: Optional[bool] = None
    work_units: Optional[int] = None
    probe_total: Optional[int] = None
    probe_discharged: Optional[int] = None

    @property
    def probed(self) -> bool:
        return self.work_units is not None

    @property
    def probe_fraction(self) -> float:
        if not self.probe_total:
            return 1.0
        return self.probe_discharged / self.probe_total

    def static_score(self, weights: ScoreWeights) -> float:
        return (weights.match * self.match_fraction
                - weights.sloc * self.logical_sloc
                - weights.mccabe * self.average_mccabe)

    def score(self, weights: ScoreWeights) -> float:
        """Full score; probe components contribute only once measured."""
        value = self.static_score(weights)
        if self.probed:
            value -= weights.work * math.log10(self.work_units + 1)
            value += weights.probe * self.probe_fraction
            if not self.feasible:
                value -= weights.infeasible
        return value

    def to_json(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "StateEvaluation":
        return cls(**payload)


def candidate_token(transformation) -> str:
    """Deterministic identity of a transformation instance: class name
    plus field values (dataclass) or description (plain class).  Used for
    cache keys, dedupe, and cross-backend chain comparison."""
    cls = type(transformation).__name__
    if dataclasses.is_dataclass(transformation):
        fields = tuple((f.name, repr(getattr(transformation, f.name)))
                       for f in dataclasses.fields(transformation))
        return f"{cls}{fields!r}"
    return f"{cls}({transformation.describe()!r})"


# ---------------------------------------------------------------------------
# Evaluation (module-level: rides CallPayload through every backend)
# ---------------------------------------------------------------------------

def evaluate_candidate(package, package_fp: str, transformation,
                       reference, parent_match: Optional[tuple] = None,
                       probe: bool = False,
                       probe_tree_bytes: int = DEFAULT_PROBE_TREE_BYTES,
                       probe_vcs: int = DEFAULT_PROBE_VCS,
                       *, memo=None) -> Dict[str, Any]:
    """Mechanically apply ``transformation`` to ``package`` and measure
    the result state; with ``transformation=None``, measure ``package``
    itself (the root state).

    Returns :class:`StateEvaluation` as a JSON dict (the obligation cache
    stores it verbatim).  ``parent_match`` is the parent state's
    ``(match_fraction, match_total)``; a ``match_neutral`` transformation
    reuses it instead of re-extracting the skeleton.  Inapplicability
    (``TransformationError``, type errors) is a result, not an exception.

    ``memo`` is a :class:`~repro.plan.reuse.SearchMemo`: the parent's
    typed form and the probe's per-subprogram analyses come from it.
    The planner passes its search's memo when it evaluates in its own
    process; a shipped evaluation (no ``memo``) uses its worker's
    (:func:`~repro.exec.payload.worker_state`), and a call anywhere else
    a fresh one.  It never changes the result.
    """
    from ..lang import analyze
    from ..lang.errors import MiniAdaError
    from ..metrics import complexity_metrics, element_metrics
    from ..refactor.engine import TransformationError

    if memo is None:
        memo = worker_state("search_memo", SearchMemo)
    typed = memo.typed(package_fp, package)
    if transformation is None:
        child = typed
    else:
        try:
            new_package = transformation.apply(typed)
            child = analyze(new_package)
        except (TransformationError, MiniAdaError) as exc:
            return StateEvaluation(
                applicable=False, reason=str(exc)).to_json()

    from ..exec.cache import package_fingerprint
    from ..lang import print_package
    # One print per state: the fingerprint and the line counts read the
    # same text.
    source = print_package(child.package)
    fingerprint = package_fingerprint(child, source=source)

    if transformation is not None \
            and getattr(transformation, "match_neutral", False) \
            and parent_match is not None:
        match_fraction, match_total = parent_match
    else:
        match_fraction, match_total = _match_components(child, reference)

    elements = element_metrics(child.package, source=source)
    complexity = complexity_metrics(child.package)
    evaluation = dict(
        applicable=True, fingerprint=fingerprint,
        match_fraction=match_fraction, match_total=match_total,
        logical_sloc=elements.logical_sloc,
        subprograms=elements.subprograms,
        average_mccabe=complexity.average_mccabe,
    )
    if probe:
        evaluation.update(_probe(child, probe_tree_bytes, probe_vcs, memo))
    return StateEvaluation(**evaluation).to_json()


def _match_components(typed, reference) -> tuple:
    """(fraction, total) of the spec-structure match ratio against the
    reference theory; a state whose skeleton cannot even be extracted is
    maximally far from specification shape."""
    from ..extract import match_ratio
    from ..extract.skeleton import SkeletonError, extract_skeleton
    if reference is None:
        return 0.0, 0
    try:
        skeleton = extract_skeleton(typed)
    except SkeletonError:
        return 0.0, 0
    ratio = match_ratio(reference, skeleton)
    return ratio.ratio, ratio.total


def _probe(typed, probe_tree_bytes: int, probe_vcs: int,
           memo: SearchMemo) -> Dict[str, Any]:
    """The expensive tier: budgeted examiner + bounded auto-prover pass.

    Protocol follows figure 2's measurement: postconditions set to true,
    VCs generated and simplified under the (reduced) resource budget.
    The deliberately-small budget keeps the probe ~0.1 s even on the
    fully unrolled AES; deep states report ``feasible=False`` plus their
    partial work, which the score penalizes.

    A subprogram whose cone fingerprint in the stripped package was
    examined before under the same budget reuses that analysis from
    ``memo``: the analysis reads nothing outside its cone."""
    from ..incr.fingerprint import cone_fingerprints
    from ..lang import analyze, with_true_postconditions
    from ..prover.auto import AutoProver
    from ..vcgen import Examiner, ExaminerLimits

    stripped = analyze(with_true_postconditions(typed.package))
    limits = ExaminerLimits(max_tree_bytes=probe_tree_bytes)
    cones = cone_fingerprints(stripped)

    def reuse(name, examine_one):
        return memo.get("probe_subprograms",
                        (name, cones[name], probe_tree_bytes), examine_one)
    report = Examiner(stripped, limits=limits, reuse=reuse).examine()

    vcs = [vc for analysis in report.per_subprogram.values()
           for vc in analysis.vcs]
    discharged = sum(1 for vc in vcs if vc.simplified.discharged)
    residues = sorted(
        (vc for vc in vcs if not vc.simplified.discharged),
        key=lambda vc: (vc.simplified_bytes, vc.subprogram, vc.name))
    for vc in residues[:probe_vcs]:
        # No work budget: bounded by the prover's deterministic
        # internal caps only.
        prover = AutoProver(stripped, subprogram_name=vc.subprogram)
        if prover.prove(vc.simplified.simplified).proved:
            discharged += 1
    return dict(feasible=report.feasible, work_units=report.work_units,
                probe_total=len(vcs), probe_discharged=discharged)
