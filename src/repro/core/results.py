"""Typed result records for the full Echo verification run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..exec import ExecStats
from ..extract import MatchRatio
from ..implication import ImplicationResult
from ..prover import ImplementationProofResult
from ..refactor import Application

__all__ = ["EchoResult"]


@dataclass
class EchoResult:
    """Everything a full Echo run produces: the verification argument's
    three legs (per-transformation preservation theorems, implementation
    proof, implication proof) plus the extracted artifacts."""

    applications: List[Application]
    implementation: ImplementationProofResult
    implication: ImplicationResult
    match: MatchRatio
    extracted_lines: int
    refactored_lines: int
    #: aggregate obligation-execution statistics (scheduling, caching,
    #: discharge times) for the run; None for hand-built results.
    exec_stats: Optional[ExecStats] = None

    @property
    def refactoring_preserved(self) -> bool:
        return all(a.preserved for a in self.applications)

    @property
    def verified(self) -> bool:
        """The complete Echo verification argument (section 3): every
        transformation preserved semantics, the code implements its
        low-level specification, and the extracted specification implies
        the original one."""
        return (self.refactoring_preserved
                and self.implementation.all_proved
                and self.implication.holds)

    def summary(self) -> str:
        impl = self.implementation
        lines = [
            f"transformations applied      {len(self.applications)} "
            f"(all preserved: {self.refactoring_preserved})",
            f"implementation proof         {impl.total_vcs} VCs, "
            f"{impl.auto_percent:.1f}% automatic, "
            f"{impl.interactive_discharged} interactive, "
            f"{len(impl.undischarged)} undischarged",
            f"spec structure match         {self.match.percent:.1f}%",
            f"implication proof            {self.implication.lemma_count} "
            f"lemmas, holds: {self.implication.holds} "
            f"(proof strength: {self.implication.is_proof})",
        ]
        if self.exec_stats is not None and self.exec_stats.total:
            stats = self.exec_stats
            lines.append(
                f"proof obligations            {stats.total} "
                f"({sum(stats.cached.values())} cached, hit rate "
                f"{100.0 * stats.hit_rate:.1f}%)")
            faults = {name: count for name, count in stats.failures.items()
                      if count}
            if faults:
                # Surface fault-tolerance activity: a verdict reached
                # through crash recovery or a degraded backend is still a
                # verdict, but the operator should see it happened.
                lines.append(
                    f"execution faults             "
                    + ", ".join(f"{name}: {count}"
                                for name, count in sorted(faults.items())))
        lines.append(f"VERIFIED: {self.verified}")
        return "\n".join(lines)
