"""Semantics-preservation machinery (PVS transformation proofs substitute).

See DESIGN.md: the theorem proved per transformation application is the
paper's ``init_state(P) = init_state(P') => final_state(P) =
final_state(P')``, discharged by symbolic summary equality, exhaustive
evaluation, or sampled differential testing on the evidence ladder of
:mod:`repro.evidence`, which records the level.
"""

from .differential import (
    Counterexample, differential_check, enumerate_states, exhaustive_check,
)
from .model import (
    State, TransitionSemantics, domain_size, final_state, input_params,
    observable_params, random_state, random_value, state_key,
)
from .symbolic import SymbolicExecutor, SymbolicSummary, UnsupportedProgram
from .theorem import CHECKS, prove_equivalence

__all__ = [
    "State", "TransitionSemantics", "final_state", "random_state",
    "random_value", "state_key", "input_params", "observable_params",
    "domain_size",
    "Counterexample", "differential_check", "exhaustive_check",
    "enumerate_states",
    "SymbolicExecutor", "SymbolicSummary", "UnsupportedProgram",
    "CHECKS", "prove_equivalence",
]
