"""The figure-1 refactoring process loop.

"A semantics-preserving transformation from the library is selected by the
user (or suggested automatically), and the transformer then checks the
applicability ... When all of the selected transformations have been
applied, a metrics analyzer collects and analyzes the code properties ...
If the metric results are not acceptable, or if they are acceptable but
later verification proofs cannot be established, the process goes back to
refactoring."

``RefactoringProcess`` mechanizes that loop: a metrics gate decides
whether to continue, and the per-block measurement history is what the
user reviews (the paper's figure 2 is exactly such a history).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..extract import extract_skeleton, match_ratio
from ..lang import analyze, with_true_postconditions
from ..metrics import MetricsReport, analyze_metrics, vc_metrics
from ..refactor import RefactoringEngine, Transformation
from ..spec import ast as sast
from ..vcgen import Examiner, ExaminerLimits

__all__ = ["MetricsGate", "RefactoringProcess"]


@dataclass
class MetricsGate:
    """Acceptance thresholds for the metric review step.

    ``None`` disables a criterion.  The defaults encode the paper's
    heuristics: keep refactoring until the analysis is feasible, the
    structure matches the specification well, and times have stabilized.
    """

    require_feasible: bool = True
    max_average_mccabe: Optional[float] = None
    min_match_percent: Optional[float] = None
    max_simulated_seconds: Optional[float] = None

    def accepts(self, report: MetricsReport) -> bool:
        if self.require_feasible and report.vcs is not None \
                and not report.vcs.feasible:
            return False
        if self.max_average_mccabe is not None and \
                report.complexity.average_mccabe > self.max_average_mccabe:
            return False
        if self.min_match_percent is not None and \
                (report.match_ratio is None
                 or report.match_ratio * 100 < self.min_match_percent):
            return False
        if self.max_simulated_seconds is not None and \
                report.vcs is not None and \
                report.vcs.simulated_seconds > self.max_simulated_seconds:
            return False
        return True


class RefactoringProcess:
    """Applies transformation groups until the metrics gate accepts."""

    def __init__(self, engine: RefactoringEngine,
                 specification: sast.Theory,
                 gate: Optional[MetricsGate] = None,
                 limits: Optional[ExaminerLimits] = None):
        self.engine = engine
        self.specification = specification
        self.gate = gate or MetricsGate()
        self.limits = limits or ExaminerLimits()
        self.history: List[MetricsReport] = []

    def measure(self, label: str = "") -> MetricsReport:
        typed = self.engine.typed
        stripped = analyze(with_true_postconditions(typed.package))
        report = Examiner(stripped, limits=self.limits).examine()
        skeleton = extract_skeleton(typed)
        ratio = match_ratio(self.specification, skeleton)
        metrics = analyze_metrics(
            typed.package, label=label, vcs=vc_metrics(report),
            match_ratio=ratio.ratio)
        self.history.append(metrics)
        return metrics

    def step(self, transformations: Sequence[Transformation],
             label: str = "") -> bool:
        """Apply one group; returns True when the gate accepts the result
        (the user may stop refactoring and attempt the proofs)."""
        for transformation in transformations:
            self.engine.apply(transformation)
        return self.gate.accepts(self.measure(label=label))
