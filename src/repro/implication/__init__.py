"""Implication proof: extracted specification implies the original
specification, as a series of lemmas over the architectural map."""

from .lemmas import Lemma, generate_lemmas, implication_tccs
from .prover import SpecTermError, discharge_lemma
from .theorem import ImplicationResult, prove_implication

__all__ = [
    "Lemma", "generate_lemmas", "implication_tccs",
    "discharge_lemma", "SpecTermError",
    "ImplicationResult", "prove_implication",
]
