"""The implication theorem: extracted specification implies the original.

``prove_implication`` builds the architectural map, generates one lemma per
matched element (callees first), discharges each, and reports the overall
theorem with the quantities section 6.2.4 of the paper gives: lemma count,
TCC counts with automatic/subsumed split, and which lemmas needed which
evidence level.
"""

from __future__ import annotations

import collections
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..exec.config import coerce_exec_config
from ..extract.mapper import ArchitecturalMap, build_map
from ..extract.matchratio import MatchRatio, match_ratio
from ..prover import AutoProver
from ..evidence import Evidence
from ..spec import SpecEvaluator, ast as s
from .lemmas import Lemma, generate_lemmas, implication_tccs
from .prover import discharge_lemma

__all__ = ["ImplicationResult", "prove_implication"]


@dataclass
class ImplicationResult:
    original: s.Theory
    extracted: s.Theory
    map: ArchitecturalMap
    ratio: MatchRatio
    #: ``(lemma, evidence, manual steps)`` per lemma, callees first.
    outcomes: List[Tuple[Lemma, Evidence, int]]
    tcc_total: int
    tcc_proved: int
    tcc_subsumed: int
    tcc_unproved: int
    wall_seconds: float

    @property
    def lemma_count(self) -> int:
        return len(self.outcomes)

    @property
    def holds(self) -> bool:
        return (bool(self.outcomes)
                and all(e.holds for _, e, _ in self.outcomes)
                and self.tcc_unproved == 0)

    @property
    def is_proof(self) -> bool:
        """True when every lemma was discharged at a proof-strength level
        (no sampled evidence)."""
        return self.holds and all(e.is_proof for _, e, _ in self.outcomes)

    @property
    def failed(self) -> List[Tuple[Lemma, Evidence]]:
        return [(lemma, e) for lemma, e, _ in self.outcomes if not e.holds]

    def by_evidence(self) -> Dict[str, int]:
        """Lemmas by evidence level."""
        return dict(collections.Counter(e.level for _, e, _ in self.outcomes))

    @property
    def interactive_lemmas(self) -> int:
        """Lemmas that needed 'manual guidance' (tactic steps beyond plain
        automation) -- the paper: "In most cases, the PVS theorem prover
        could not prove the lemmas completely automatically"."""
        return sum(1 for _, _, steps in self.outcomes if steps > 0)

    @property
    def total_manual_steps(self) -> int:
        return sum(steps for _, _, steps in self.outcomes)


def prove_implication(original: s.Theory, extracted: s.Theory,
                      seed: int = 20090701,
                      exec=None) -> ImplicationResult:
    """Prove the implication theorem.

    Lemma discharge runs through the obligation scheduler
    (:mod:`repro.exec`): one ``lemma`` obligation per architectural-map
    element.  ``exec`` is the :class:`~repro.exec.ExecConfig` for the
    run.  The serial path runs lemmas inline in the historical order
    with the shared evaluator pair (bit-identical to the pre-scheduler
    path); worker processes rebuild the whole theory context from a
    declarative :class:`~repro.exec.LemmaPayload`.  Results are cached
    content-addressed on (theory texts, lemma identity, seed).
    """
    from ..exec import LemmaPayload, lemma_obligation, theory_fingerprint

    config = coerce_exec_config(exec, owner="prove_implication")

    started = time.perf_counter()
    amap = build_map(original, extracted)
    ratio = match_ratio(original, extracted)
    lemmas = generate_lemmas(original, amap)

    orig_eval = SpecEvaluator(original)
    ext_eval = SpecEvaluator(extracted)
    original_fp = theory_fingerprint(original)
    extracted_fp = theory_fingerprint(extracted)

    def discharger(lemma):
        def discharge():
            return discharge_lemma(lemma, original, extracted, amap,
                                   orig_eval, ext_eval, seed=seed)
        return discharge

    obligations = [
        lemma_obligation(lemma, discharger(lemma),
                         original_fp=original_fp, extracted_fp=extracted_fp,
                         seed=seed,
                         payload=LemmaPayload(
                             original=original, extracted=extracted,
                             original_fp=original_fp,
                             extracted_fp=extracted_fp,
                             lemma_name=lemma.name, seed=seed))
        for lemma in lemmas
    ]
    with config.scheduler() as scheduler:
        outcomes = [(lemma, *result.value) for lemma, result
                    in zip(lemmas, scheduler.run(obligations))]

    # Implication-theorem TCCs, discharged automatically with subsumption
    # accounting (duplicates across byte-typed signatures).
    tccs = implication_tccs(original, extracted, amap)
    prover = AutoProver()
    proved = subsumed = unproved = 0
    outcome_by_term: Dict[int, bool] = {}
    for tcc in tccs:
        known = outcome_by_term.get(tcc._id)
        if known is not None:
            subsumed += 1
            if not known:
                unproved += 1
            continue
        result = prover.prove(tcc)
        outcome_by_term[tcc._id] = result.proved
        if result.proved:
            proved += 1
        else:
            unproved += 1

    return ImplicationResult(
        original=original, extracted=extracted, map=amap, ratio=ratio,
        outcomes=outcomes,
        tcc_total=len(tccs), tcc_proved=proved, tcc_subsumed=subsumed,
        tcc_unproved=unproved,
        wall_seconds=time.perf_counter() - started,
    )
