"""The Examiner: per-subprogram VC generation + simplification driver.

This is the reproduction's equivalent of running ``spark`` + the SPADE
simplifier over a package and collecting what the paper's figure 2(c)-(e)
plots: analysis feasibility, analysis time (deterministic work units and
simulated seconds), generated VC bytes, and simplified-VC bytes, plus the
per-VC detail the implementation proof (section 6.2.3) reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..lang.typecheck import TypedPackage
from ..logic import RewriteBudgetExceeded
from ..logic.measure import tree_bytes
from .resources import (
    ExaminerLimits, ResourceExhausted, ResourceMeter, simulated_seconds,
)
from .simplifier import SimplifiedVC, Simplifier
from .wp import WPError, generate_obligations

__all__ = ["VCRecord", "SubprogramAnalysis", "ExaminerReport", "Examiner"]

#: Estimated printed characters per FDL line, used to convert term tree
#: bytes into the paper's "length of VCs in lines".
_CHARS_PER_LINE = 40

#: Relative cost of one simplifier work unit vs one generated byte, in the
#: deterministic analysis-work model.
_SIMPLIFIER_COST = 20


@dataclass
class VCRecord:
    """One verification condition after generation and simplification."""

    name: str
    subprogram: str
    kind: str
    generated_bytes: int
    simplified_bytes: int
    discharged_by_simplifier: bool
    simplified: SimplifiedVC


@dataclass
class SubprogramAnalysis:
    name: str
    feasible: bool
    failure_reason: Optional[str] = None
    vcs: List[VCRecord] = field(default_factory=list)
    generated_bytes: int = 0
    simplified_bytes: int = 0
    work_units: int = 0
    #: Rewrite fixpoints that exhausted their iteration budget while
    #: simplifying this subprogram's VCs; nonzero means some "simplified"
    #: residues may not be normal forms (best-effort, honestly reported).
    fixpoint_exhausted: int = 0
    #: Hot-path instrumentation (DESIGN.md §13): dispatch-table lookups
    #: that pruned the rule scan, rules skipped by head-op indexing, and
    #: subterm normal forms served by the cross-obligation cache.
    index_hits: int = 0
    index_skipped_rules: int = 0
    cross_vc_hits: int = 0

    @property
    def vc_count(self) -> int:
        return len(self.vcs)

    @property
    def discharged_count(self) -> int:
        return sum(1 for vc in self.vcs if vc.discharged_by_simplifier)

    @property
    def max_generated_lines(self) -> int:
        if not self.vcs:
            return 0
        return max(vc.generated_bytes for vc in self.vcs) // _CHARS_PER_LINE + 1

    @property
    def max_residue_lines(self) -> int:
        residues = [vc.simplified_bytes for vc in self.vcs
                    if not vc.discharged_by_simplifier]
        if not residues:
            return 0
        return max(residues) // _CHARS_PER_LINE + 1


@dataclass
class ExaminerReport:
    per_subprogram: Dict[str, SubprogramAnalysis]
    wall_seconds: float

    @property
    def feasible(self) -> bool:
        return all(a.feasible for a in self.per_subprogram.values())

    @property
    def infeasible_subprograms(self) -> List[str]:
        return [n for n, a in self.per_subprogram.items() if not a.feasible]

    @property
    def vc_count(self) -> int:
        return sum(a.vc_count for a in self.per_subprogram.values())

    @property
    def discharged_count(self) -> int:
        return sum(a.discharged_count for a in self.per_subprogram.values())

    @property
    def generated_bytes(self) -> int:
        return sum(a.generated_bytes for a in self.per_subprogram.values())

    @property
    def simplified_bytes(self) -> int:
        return sum(a.simplified_bytes for a in self.per_subprogram.values())

    @property
    def work_units(self) -> int:
        return sum(a.work_units for a in self.per_subprogram.values())

    @property
    def fixpoint_exhausted(self) -> int:
        """Total rewrite fixpoints that gave up before converging."""
        return sum(a.fixpoint_exhausted
                   for a in self.per_subprogram.values())

    @property
    def index_hits(self) -> int:
        """Total dispatch-table lookups that pruned the rule scan."""
        return sum(a.index_hits for a in self.per_subprogram.values())

    @property
    def index_skipped_rules(self) -> int:
        """Total rules never scanned thanks to head-op indexing."""
        return sum(a.index_skipped_rules
                   for a in self.per_subprogram.values())

    @property
    def cross_vc_hits(self) -> int:
        """Total subterm normal forms reused across VCs."""
        return sum(a.cross_vc_hits for a in self.per_subprogram.values())

    @property
    def simulated_seconds(self) -> float:
        return simulated_seconds(self.work_units)

    @property
    def max_generated_lines(self) -> int:
        return max((a.max_generated_lines
                    for a in self.per_subprogram.values()), default=0)

    @property
    def max_residue_lines(self) -> int:
        return max((a.max_residue_lines
                    for a in self.per_subprogram.values()), default=0)

    def undischarged(self) -> List[VCRecord]:
        out = []
        for analysis in self.per_subprogram.values():
            out.extend(vc for vc in analysis.vcs
                       if not vc.discharged_by_simplifier)
        return out

    def all_vcs(self) -> List[VCRecord]:
        out = []
        for analysis in self.per_subprogram.values():
            out.extend(analysis.vcs)
        return out


class Examiner:
    """Generates and simplifies VCs for (a subset of) a package."""

    def __init__(self, typed: TypedPackage,
                 limits: Optional[ExaminerLimits] = None,
                 exclude_rule_families: Tuple[str, ...] = (),
                 shared=None,
                 reuse: Optional[Callable[
                     [str, Callable[[], SubprogramAnalysis]],
                     SubprogramAnalysis]] = None):
        """``shared`` is an optional :class:`~repro.logic.normcache
        .NormalizationCache` threaded into each subprogram's simplifier
        (the implementation-proof session passes its per-run cache so
        examination warms the cache the prover then reuses).

        ``reuse(name, compute)`` returns the subprogram's analysis,
        calling ``compute()`` only when it has none from an earlier
        examination of the same content (the planner's probe passes a
        search-scoped memo keyed by cone fingerprint)."""
        self.typed = typed
        self.limits = limits or ExaminerLimits()
        self.exclude_rule_families = exclude_rule_families
        self.shared = shared
        self.reuse = reuse

    def examine(self, subprogram_names: Optional[Sequence[str]] = None
                ) -> ExaminerReport:
        names = list(subprogram_names) if subprogram_names is not None else \
            [sp.name for sp in self.typed.package.subprograms]
        started = time.perf_counter()
        per: Dict[str, SubprogramAnalysis] = {}
        for name in names:
            if self.reuse is None:
                per[name] = self._examine_one(name)
            else:
                per[name] = self.reuse(
                    name, lambda name=name: self._examine_one(name))
        return ExaminerReport(
            per_subprogram=per,
            wall_seconds=time.perf_counter() - started,
        )

    def _examine_one(self, name: str) -> SubprogramAnalysis:
        sp = self.typed.signatures[name]
        meter = ResourceMeter(self.limits)
        analysis = SubprogramAnalysis(name=name, feasible=True)
        try:
            obligations = generate_obligations(self.typed, sp, meter)
        except ResourceExhausted as exc:
            analysis.feasible = False
            analysis.failure_reason = f"examiner: {exc}"
            analysis.generated_bytes = meter.peak_tree_bytes
            analysis.work_units = meter.peak_tree_bytes
            return analysis
        except WPError as exc:
            analysis.feasible = False
            analysis.failure_reason = f"unsupported: {exc}"
            return analysis

        generated = meter.measure(obligations)
        analysis.generated_bytes = generated

        simplifier = Simplifier(
            self.typed, name,
            exclude_families=self.exclude_rule_families,
            max_work=self.limits.max_tree_bytes // _SIMPLIFIER_COST
            if self.limits.max_tree_bytes else None,
            shared=self.shared)
        size_cache: Dict[int, int] = {}
        for i, obligation in enumerate(obligations, start=1):
            gen_bytes = tree_bytes(obligation.term, meter._tree_cache)
            try:
                simplified = simplifier.simplify(obligation)
            except RewriteBudgetExceeded as exc:
                analysis.feasible = False
                analysis.failure_reason = f"simplifier: {exc}"
                break
            residue_bytes = 0 if simplified.discharged else \
                tree_bytes(simplified.simplified, size_cache)
            analysis.vcs.append(VCRecord(
                name=f"{name}_{i}",
                subprogram=name,
                kind=obligation.kind,
                generated_bytes=gen_bytes,
                simplified_bytes=residue_bytes,
                discharged_by_simplifier=simplified.discharged,
                simplified=simplified,
            ))
        analysis.simplified_bytes = sum(vc.simplified_bytes
                                        for vc in analysis.vcs)
        analysis.work_units = (analysis.generated_bytes
                               + _SIMPLIFIER_COST * simplifier.work)
        analysis.fixpoint_exhausted = simplifier.fixpoint_exhausted
        analysis.index_hits = simplifier.index_hits
        analysis.index_skipped_rules = simplifier.index_skipped_rules
        analysis.cross_vc_hits = simplifier.cross_vc_hits
        return analysis
