"""Verification-condition metrics (paper section 5.2).

"The number and size of verification conditions, maximum length of
verification conditions, and the time that the SPARK tools take to analyze
the verification conditions."

These are read off an :class:`~repro.vcgen.examiner.ExaminerReport`; this
module just shapes them into the record the figure-2 harness plots.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..vcgen import ExaminerReport

__all__ = ["VCMetrics", "vc_metrics"]


@dataclass(frozen=True)
class VCMetrics:
    feasible: bool
    vc_count: int
    generated_bytes: int
    simplified_bytes: int
    max_vc_lines: int
    max_residue_lines: int
    discharged_by_simplifier: int
    work_units: int
    simulated_seconds: float
    wall_seconds: float
    #: Rewrite fixpoints that exhausted their iteration budget; nonzero
    #: means some simplified residues are best-effort, not normal forms.
    fixpoint_exhausted: int = 0
    #: Hot-path instrumentation (DESIGN.md §13): dispatch-table lookups
    #: that pruned the rule scan, rules those lookups skipped, and
    #: subterm normal forms served by the cross-obligation cache.
    index_hits: int = 0
    index_skipped_rules: int = 0
    cross_vc_hits: int = 0

    @property
    def generated_mb(self) -> float:
        return self.generated_bytes / (1024 * 1024)

    @property
    def simplified_mb(self) -> float:
        return self.simplified_bytes / (1024 * 1024)


def vc_metrics(report: ExaminerReport) -> VCMetrics:
    return VCMetrics(
        feasible=report.feasible,
        vc_count=report.vc_count,
        generated_bytes=report.generated_bytes,
        simplified_bytes=report.simplified_bytes,
        max_vc_lines=report.max_generated_lines,
        max_residue_lines=report.max_residue_lines,
        discharged_by_simplifier=report.discharged_count,
        work_units=report.work_units,
        simulated_seconds=report.simulated_seconds,
        wall_seconds=report.wall_seconds,
        fixpoint_exhausted=report.fixpoint_exhausted,
        index_hits=report.index_hits,
        index_skipped_rules=report.index_skipped_rules,
        cross_vc_hits=report.cross_vc_hits,
    )
