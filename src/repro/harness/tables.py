"""Table harnesses: Table 1 (annotations), the implementation-proof
statistics of 6.2.3, the implication-proof statistics of 6.2.4, and
tables 2/3 (defect detection)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional

from ..aes.annotations import annotated_package
from ..aes.fips197 import fips197_theory
from ..aes.proof_scripts import aes_proof_scripts
from ..defects import run_experiment, stage_table
from ..exec.config import ExecConfig, coerce_exec_config
from ..extract import extract_specification
from ..implication import ImplicationResult, prove_implication
from ..lang import AnnotationCounts, count_annotations
from ..prover import ImplementationProof, ImplementationProofResult
from ..spec import check_theory, discharge_tccs, spec_line_count

__all__ = [
    "table1", "render_table1", "implementation_proof_stats",
    "implication_proof_stats", "ImplicationStats", "defect_tables",
    "render_defect_table",
]


def table1() -> AnnotationCounts:
    """Annotation counts of the fully annotated refactored AES."""
    return count_annotations(annotated_package().package)


def render_table1(counts: AnnotationCounts) -> str:
    return "\n".join([
        "Table 1: Annotations in implementation proof",
        f"  Preconditions                        {counts.preconditions:>4}",
        f"  Postconditions                       {counts.postconditions:>4}",
        f"  Loop Invariants & Assertions         "
        f"{counts.invariants_and_asserts:>4}",
        f"  Proof Functions, Proof Rules & Other "
        f"{counts.proof_functions_rules_other:>4}",
    ])


@lru_cache(maxsize=None)
def implementation_proof_stats(exec: Optional[ExecConfig] = None,
                               manifest_dir: Optional[str] = None,
                               incremental: bool = False
                               ) -> ImplementationProofResult:
    """The full implementation proof over the annotated refactored AES
    (section 6.2.3's 306 VCs / 86.6% / 15-of-25 figures).  ``exec``
    configures the obligation scheduler (``ExecConfig`` is hashable, so
    identical configurations share the memoized run; the PR-3 era bare
    ``jobs`` shim is gone and raises ``TypeError``).
    ``manifest_dir``/``incremental`` (both hashable, so they key the
    memo too) enable edit-aware re-verification via the run manifest
    (DESIGN.md §15)."""
    config = coerce_exec_config(exec, owner="implementation_proof_stats")
    typed = annotated_package()
    proof = ImplementationProof(typed, scripts=aes_proof_scripts(),
                                exec=config, manifest=manifest_dir,
                                incremental=incremental)
    return proof.run()


@dataclass
class ImplicationStats:
    extracted_lines: int
    extracted_tccs_total: int
    extracted_tccs_proved: int
    extracted_tccs_subsumed: int
    result: ImplicationResult


@lru_cache(maxsize=None)
def implication_proof_stats(exec: Optional[ExecConfig] = None
                            ) -> ImplicationStats:
    """Section 6.2.4: extracted-spec size, TCC accounting, lemma count.
    ``exec`` configures the obligation scheduler (the PR-3 era bare
    ``jobs`` shim is gone and raises ``TypeError``)."""
    config = coerce_exec_config(exec, owner="implication_proof_stats")
    typed = annotated_package()
    extraction = extract_specification(typed)
    check = check_theory(extraction.theory)
    tcc_report = discharge_tccs(extraction.theory, check.tccs)
    result = prove_implication(fips197_theory(), extraction.theory,
                               exec=config)
    return ImplicationStats(
        extracted_lines=spec_line_count(extraction.theory),
        extracted_tccs_total=tcc_report.total,
        extracted_tccs_proved=tcc_report.proved,
        extracted_tccs_subsumed=tcc_report.subsumed,
        result=result,
    )


@lru_cache(maxsize=1)
def defect_tables() -> Dict[int, Dict[str, int]]:
    """Tables 2 and 3: per-stage defect detection counts per setup."""
    outcomes = run_experiment()
    return {setup: stage_table(rows) for setup, rows in outcomes.items()}


def render_defect_table(setup: int, rows: Dict[str, int],
                        total: int = 15) -> str:
    remaining = total
    lines = [f"Table {1 + setup}: Defect detection for setup {setup}",
             f"  {'Verification Stage':<34}{'Caught':>7}{'Left':>6}",
             f"  {'Initial state':<34}{'':>7}{remaining:>6}"]
    names = {"refactoring": "Verification refactoring",
             "implementation": "Implementation proof",
             "implication": "Implication proof"}
    for stage in ("refactoring", "implementation", "implication"):
        caught = rows[stage]
        remaining -= caught
        lines.append(f"  {names[stage]:<34}{caught:>7}{remaining:>6}")
    return "\n".join(lines)
