"""Differential testing of semantics preservation.

Runs two subprograms (usually the same name before/after a refactoring)
from equal random initial states and compares final states -- a direct
dynamic check of the paper's preservation theorem.  Used standalone for
quick screening and as the ``exhaustive`` and ``sampled`` rungs of the
evidence ladder (:mod:`repro.evidence`): every input of a small domain, or
seeded random inputs when the domain is too large to enumerate and the
programs are outside the symbolically summarizable fragment.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..evidence import EXHAUSTIVE_LIMIT, Evidence
from ..lang import TypedPackage
from ..lang.errors import MiniAdaError
from .model import (
    State, domain_size, final_state, input_params, random_state, state_key,
)

__all__ = ["Counterexample", "differential_check", "trial_states",
           "trial_evidence", "exhaustive_check", "enumerate_states"]


@dataclass(frozen=True)
class Counterexample:
    initial: State
    left_final: Optional[State]
    right_final: Optional[State]
    left_error: Optional[str] = None
    right_error: Optional[str] = None


def _run(typed: TypedPackage, name: str, initial: State):
    try:
        return final_state(typed, name, dict(initial)), None
    except MiniAdaError as exc:
        return None, str(exc)


def _compare(left_typed, left_name, right_typed, right_name, initial,
             left=None) -> Optional[Counterexample]:
    """``left`` is the left side's ``_run`` result when the caller
    already has it (the same run on the same content)."""
    left, left_err = _run(left_typed, left_name, initial) if left is None \
        else left
    right, right_err = _run(right_typed, right_name, initial)
    if left_err or right_err:
        # A fault on one side only, or differing faults, is a difference;
        # matching faults (both raise) still count as disagreement unless
        # both fault identically -- refactoring must preserve non-faulting
        # executions, and our case studies use non-faulting domains.
        if left_err and right_err:
            return None
        return Counterexample(initial=initial, left_final=left,
                              right_final=right, left_error=left_err,
                              right_error=right_err)
    if state_key(left) != state_key(right):
        return Counterexample(initial=initial, left_final=left,
                              right_final=right)
    return None


def trial_states(left_typed: TypedPackage, left_name: str,
                 right_typed: TypedPackage, right_name: str,
                 trials: int, seed: int, sampler=None) -> List[State]:
    """The ``trials`` seeded initial states of a differential check, after
    checking that both subprograms read the same inputs.

    ``sampler(rng)`` overrides initial-state generation -- needed when the
    meaningful input domain is narrower than the declared types (e.g. AES
    key lengths are 4/6/8 words, not 5 or 7)."""
    sp_left = left_typed.signatures[left_name]
    sp_right = right_typed.signatures[right_name]
    left_ins = [p.name for p in input_params(sp_left)]
    right_ins = [p.name for p in input_params(sp_right)]
    if left_ins != right_ins:
        raise ValueError(
            f"signatures differ: {left_name} vs {right_name}")
    rng = random.Random(seed)
    return [sampler(rng) if sampler is not None
            else random_state(left_typed, sp_left, rng)
            for _ in range(trials)]


def trial_evidence(level: str, counterexamples: Iterable) -> Evidence:
    """The evidence of per-trial comparisons, in trial order (a lazy
    iterable stops at the first counterexample, which refutes)."""
    trials = 0
    for trials, cx in enumerate(counterexamples, 1):
        if cx is not None:
            return Evidence(level, False, f"counterexample on trial {trials}",
                            cx)
    return Evidence(level, True, f"{trials} initial states agreed")


def _compared(left_typed, left_name, right_typed, right_name, states):
    return (_compare(left_typed, left_name, right_typed, right_name, state)
            for state in states)


def differential_check(left_typed: TypedPackage, left_name: str,
                       right_typed: TypedPackage, right_name: str,
                       trials: int = 64, seed: int = 20090701,
                       sampler=None) -> Evidence:
    """Random differential test over the ``trials`` initial states of
    :func:`trial_states`, stopping at the first counterexample: sampled
    evidence."""
    args = (left_typed, left_name, right_typed, right_name)
    return trial_evidence("sampled", _compared(
        *args, trial_states(*args, trials, seed, sampler)))


def enumerate_states(typed: TypedPackage, sp) -> List[State]:
    """All initial states of a finite-domain subprogram."""
    names = []
    value_ranges = []
    for p in input_params(sp):
        t = typed.type_named(p.type_name)
        names.append(p.name)
        if hasattr(t, "modulus"):
            value_ranges.append(range(t.modulus))
        elif hasattr(t, "lo") and hasattr(t, "hi") and not hasattr(t, "elem"):
            value_ranges.append(range(t.lo, t.hi + 1))
        elif t.name == "Boolean":
            value_ranges.append((False, True))
        else:
            raise ValueError(f"{p.name}: domain not enumerable")
    return [dict(zip(names, combo))
            for combo in itertools.product(*value_ranges)]


def exhaustive_check(left_typed: TypedPackage, left_name: str,
                     right_typed: TypedPackage, right_name: str
                     ) -> Optional[Evidence]:
    """Equivalence over every initial state of a finite input domain (a
    proof by evaluation); None when the domain exceeds
    :data:`~repro.evidence.EXHAUSTIVE_LIMIT`."""
    sp = left_typed.signatures[left_name]
    if domain_size(left_typed, sp, EXHAUSTIVE_LIMIT) is None:
        return None
    return trial_evidence("exhaustive", _compared(
        left_typed, left_name, right_typed, right_name,
        enumerate_states(left_typed, sp)))
