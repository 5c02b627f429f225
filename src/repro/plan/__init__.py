"""Automated verification-refactoring planning (DESIGN.md §17).

``repro.plan`` closes the loop the paper leaves to the human: given a
program, its specification theory, and the transformation library, it
*discovers* a chain of semantics-preserving refactorings that carries
the program into a provable, specification-aligned form -- enumerate
candidate sites, score the resulting states on the repo's own metrics,
search best-first under a beam, and validate every accepted step with
the engine's semantics-preservation theorem.

Entry points: :class:`Planner` (library),
``python -m repro.plan`` (CLI), ``python -m repro.harness --plan``
(harness report mode), and :func:`plan_aes` for the AES case study.
"""

from .catalog import AlignWithSpecification, Catalog, CatalogEntry, \
    aes_catalog
from .candidates import Candidate, enumerate_candidates
from .frontier import Frontier, PlanState, PlanStep
from .scoring import ScoreWeights, StateEvaluation, candidate_token, \
    evaluate_candidate
from .search import Planner, PlanResult

__all__ = [
    "Planner", "PlanResult", "plan_aes",
    "Catalog", "CatalogEntry", "AlignWithSpecification", "aes_catalog",
    "Candidate", "enumerate_candidates",
    "Frontier", "PlanState", "PlanStep",
    "ScoreWeights", "StateEvaluation", "candidate_token",
    "evaluate_candidate",
]


def plan_aes(trials: int = 2, seed: int = 20090701, exec=None,
             beam_width: int = 12, top_k: int = 6,
             max_expansions: int = 256, log=None) -> PlanResult:
    """Plan the AES case study: optimized implementation toward the
    FIPS-197 architecture, with the section-6.2.2 user-specified moves
    available in the catalog.  A second run over the same disk-tier
    result cache (``REPRO_CACHE_DIR``, or ``exec``'s ``cache``) replays
    the whole scored frontier warm."""
    from ..aes.blocks import cipher_sampler
    from ..aes.fips197 import fips197_theory
    from ..aes.optimized import optimized_source
    from ..lang import parse_package

    planner = Planner(
        parse_package(optimized_source()),
        observables=["Cipher", "Inv_Cipher"],
        reference=fips197_theory(),
        catalog=aes_catalog(),
        beam_width=beam_width, top_k=top_k,
        max_expansions=max_expansions,
        check="differential", trials=trials, seed=seed,
        samplers={"Cipher": cipher_sampler, "Inv_Cipher": cipher_sampler},
        exec=exec, log=log)
    return planner.plan()
