"""The seeded-defect experiment (paper section 7, tables 2 and 3).

For each defect and each annotation setup, the full Echo process runs and
the first stage that exposes the defect is recorded:

``refactoring``     a mechanical transformation's applicability check or
                    per-application preservation proof fails;
``implementation``  the SPARK-style implementation proof leaves VCs
                    undischarged (annotation mismatch, or an
                    exception-freedom failure, which catches out-of-bounds
                    defects in *both* setups);
``implication``     an implication lemma is refuted;
``not caught``      the benign defect.

Setup 1: the annotations describe the defective code's actual behaviour
(misunderstood specification), so functional defects slip through the
implementation proof and surface in the implication proof.  Setup 2: the
annotations describe the intended behaviour, so the implementation proof
catches them first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..aes.annotations import build_annotated
from ..aes.blocks import transformation_blocks
from ..aes.fips197 import fips197_theory
from ..aes.optimized import optimized_source
from ..aes.refactored import refactored_source
from ..extract import extract_specification
from ..implication import prove_implication
from ..lang import parse_package
from ..lang.errors import MiniAdaError
from ..prover import ImplementationProof
from ..refactor import RefactoringEngine, TransformationError
from .curated import curated_defects
from .types import Defect

__all__ = ["DefectOutcome", "run_defect", "run_experiment", "stage_table",
           "STAGES"]

STAGES = ("refactoring", "implementation", "implication", "not caught")


@dataclass(frozen=True)
class DefectOutcome:
    defect: Defect
    setup: int
    stage: str
    detail: str = ""


def _patched(text: str, patches: Sequence[Tuple[str, str]]) -> str:
    for old, new in patches:
        if old not in text:
            raise ValueError(f"defect patch site not found: {old[:60]!r}")
        text = text.replace(old, new, 1)
    return text


def _refactoring_catches(defect: Defect) -> Optional[str]:
    """Run the mechanical refactoring blocks (1 and 2) on the defective
    optimized program; returns the failure detail if a transformation's
    applicability check rejects it."""
    if not defect.optimized_patch:
        return None
    source = _patched(optimized_source(), defect.optimized_patch)
    try:
        engine = RefactoringEngine(parse_package(source),
                                   observables=["Cipher", "Inv_Cipher"],
                                   check="none")
    except MiniAdaError as exc:
        return f"defective program rejected by the front end: {exc}"
    for index, transformations in transformation_blocks():
        if index > 2:
            break
        for transformation in transformations:
            try:
                engine.apply(transformation)
            except TransformationError as exc:
                return str(exc)
    return None


def run_defect(defect: Defect, setup: int) -> DefectOutcome:
    """Run the Echo pipeline on one seeded defect under one setup."""
    assert setup in (1, 2)

    detail = _refactoring_catches(defect)
    if detail is not None:
        return DefectOutcome(defect=defect, setup=setup, stage="refactoring",
                             detail=detail)

    # The defect survives refactoring; annotate and run the implementation
    # proof.  Setup 1 annotates the *actual* behaviour (matching mutations
    # applied to the annotation formulas); setup 2 keeps the intended ones.
    code = _patched(refactored_source(), defect.refactored_patch) \
        if defect.refactored_patch else refactored_source()
    annotation_patches = defect.annotation_patch if setup == 1 else ()
    try:
        typed = build_annotated(code, annotation_patches)
    except MiniAdaError as exc:
        return DefectOutcome(defect=defect, setup=setup,
                             stage="implementation",
                             detail=f"annotated program rejected: {exc}")
    if defect.subprograms:
        proof = ImplementationProof(typed)
        result = proof.run(list(defect.subprograms))
        if not result.feasible or result.undischarged:
            kinds = result.undischarged_kinds()
            return DefectOutcome(
                defect=defect, setup=setup, stage="implementation",
                detail=f"undischarged VCs: {kinds}")

    # Implication proof over the extracted specification.
    extracted = extract_specification(typed).theory
    implication = prove_implication(fips197_theory(), extracted)
    if not implication.holds:
        failed = ", ".join(lemma.name for lemma, _ in implication.failed)
        return DefectOutcome(defect=defect, setup=setup, stage="implication",
                             detail=f"refuted lemmas: {failed}")

    return DefectOutcome(defect=defect, setup=setup, stage="not caught",
                         detail="benign" if defect.benign else "NOT DETECTED")


def run_experiment(defects: Optional[Sequence[Defect]] = None,
                   setups: Sequence[int] = (1, 2),
                   ) -> Dict[int, List[DefectOutcome]]:
    """Tables 2 and 3: outcomes per setup."""
    defects = list(defects) if defects is not None else curated_defects()
    outcomes: Dict[int, List[DefectOutcome]] = {}
    # Refactoring detection is setup-independent; run_defect handles the
    # caching implicitly through the deterministic sources.
    for setup in setups:
        outcomes[setup] = [run_defect(defect, setup) for defect in defects]
    return outcomes


def stage_table(outcomes: List[DefectOutcome]) -> Dict[str, int]:
    """Per-stage caught/left counts in the paper's table 2/3 shape."""
    remaining = len(outcomes)
    rows = {}
    for stage in ("refactoring", "implementation", "implication"):
        caught = sum(1 for o in outcomes if o.stage == stage)
        remaining -= caught
        rows[stage] = caught
    rows["left"] = remaining
    return rows
