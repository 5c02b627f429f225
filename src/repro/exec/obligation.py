"""The uniform proof-obligation type and adapters over the proof layers.

An :class:`Obligation` is one schedulable, cacheable unit of proof work:

* a VC discharge (``kind='vc'``): one verification condition pushed
  through :meth:`repro.prover.auto.AutoProver.prove` and, on failure, the
  subprogram's interactive proof scripts;
* an equivalence trial (``kind='equiv_trial'``): one differential-test
  trial of a semantics-preservation theorem
  (:mod:`repro.equiv.differential`);
* an implication lemma (``kind='lemma'``): one
  :func:`repro.implication.prover.discharge_lemma` step.

The adapters below wrap the existing entry points *without changing their
semantics*: the thunk a caller supplies is exactly the code the serial
path used to run inline, and the adapter only attaches a stable cache key
(content-addressed over term fingerprints + program/theory text + prover
configuration) and, where the result is plain data, JSON codecs for the
on-disk cache layer.

An obligation may additionally carry a declarative, picklable ``payload``
(:mod:`repro.exec.payload`) describing the same work as data.  The serial
backend always executes the thunk; the process and remote backends ship
the payload to a worker, which reconstructs the thunk on its side of the
process boundary.  Obligations without a payload still run under those
backends -- inline on the parent, preserving semantics at the cost of
parallelism.

Obligations in the same ``group`` are executed serially in submission
order even under a parallel scheduler -- this is how per-subprogram prover
state (memo caches, fresh-name counters) keeps its exact serial-run
discipline while distinct subprograms fan out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .cache import make_key

__all__ = [
    "Obligation",
    "vc_obligation", "equiv_trial_obligation", "lemma_obligation",
    "VC", "EQUIV_TRIAL", "LEMMA",
]

VC = "vc"
EQUIV_TRIAL = "equiv_trial"
LEMMA = "lemma"


@dataclass
class Obligation:
    """One unit of proof work for the scheduler."""

    kind: str                        # 'vc' | 'equiv_trial' | 'lemma' | ...
    label: str                       # human-readable; shows up in telemetry
    thunk: Callable[[], Any]         # runs the actual discharge
    cache_key: Optional[str] = None  # None: never cached
    group: Optional[str] = None      # same group => serial, in order
    #: JSON codecs for the on-disk cache layer; absent => memory-only.
    encode: Optional[Callable[[Any], Any]] = None
    decode: Optional[Callable[[Any], Any]] = None
    #: Declarative picklable spec of the same work, for the process
    #: backend (:mod:`repro.exec.payload`); None => parent-side only.
    payload: Optional[Any] = None


# ---------------------------------------------------------------------------
# VC discharge
# ---------------------------------------------------------------------------

def _encode_vc_result(value):
    stage, result = value
    return {"stage": stage,
            "result": None if result is None else
            [bool(result.proved), result.method, result.detail]}


def _decode_vc_result(payload):
    from ..prover.auto import ProofResult
    raw = payload["result"]
    result = None if raw is None else \
        ProofResult(proved=raw[0], method=raw[1], detail=raw[2])
    return payload["stage"], result


def vc_obligation(vc, discharge: Callable[[], Any], *,
                  package_fp: str, config: str = "",
                  payload=None) -> Obligation:
    """Wrap the discharge of one :class:`~repro.vcgen.examiner.VCRecord`.

    ``discharge`` must return ``(stage, ProofResult-or-None)`` -- the
    stage/result pair the implementation-proof session records as a
    :class:`~repro.prover.session.VCOutcome`.  The key covers the
    simplified VC term, the VC's identity, the package text, and the
    prover configuration (timeouts, available scripts), so any change to
    code, annotations, or setup is a miss.  ``payload`` optionally names
    the same discharge declaratively for the process backend.
    """
    from ..logic import fingerprint
    key = make_key(VC, package_fp, vc.subprogram, vc.name, vc.kind,
                   fingerprint(vc.simplified.simplified), config)
    return Obligation(
        kind=VC, label=f"{vc.subprogram}/{vc.name}", thunk=discharge,
        cache_key=key, group=f"sp:{vc.subprogram}",
        encode=_encode_vc_result, decode=_decode_vc_result,
        payload=payload)


# ---------------------------------------------------------------------------
# Equivalence trials
# ---------------------------------------------------------------------------

def _state_token(state) -> str:
    """Canonical serialization of an initial interpreter state (dict of
    name -> int/bool/tuple)."""
    return repr(sorted(state.items()))


def equiv_trial_obligation(index: int, name: str, initial,
                           compare: Callable[[], Any], *,
                           left_fp: str, right_fp: str,
                           payload=None) -> Obligation:
    """Wrap one differential trial: ``compare`` runs both sides from
    ``initial`` and returns a Counterexample or None.  Cached in memory
    only (counterexamples carry interpreter states, which we do not
    serialize to disk)."""
    key = make_key(EQUIV_TRIAL, left_fp, right_fp, name,
                   _state_token(initial))
    return Obligation(
        kind=EQUIV_TRIAL, label=f"{name}#trial{index}", thunk=compare,
        cache_key=key, payload=payload)


# ---------------------------------------------------------------------------
# Implication lemmas
# ---------------------------------------------------------------------------

def _encode_lemma_outcome(outcome):
    """Scalar fields of a LemmaOutcome -- shared by the on-disk cache
    codec and the process backend's result wire."""
    return {"proved": outcome.proved, "evidence": outcome.evidence,
            "is_proof": outcome.is_proof, "detail": outcome.detail,
            "manual_steps": outcome.manual_steps}


def lemma_obligation(lemma, discharge: Callable[[], Any], *,
                     original_fp: str, extracted_fp: str,
                     seed: int, payload=None) -> Obligation:
    """Wrap one implication-lemma discharge.  ``discharge`` returns the
    :class:`~repro.implication.prover.LemmaOutcome`; the on-disk codec
    stores its scalar fields and re-attaches the in-memory lemma object on
    decode."""

    def decode(wire):
        from ..implication.prover import LemmaOutcome
        return LemmaOutcome(lemma=lemma, proved=wire["proved"],
                            evidence=wire["evidence"],
                            is_proof=wire["is_proof"],
                            detail=wire["detail"],
                            manual_steps=wire["manual_steps"])

    key = make_key(LEMMA, original_fp, extracted_fp, lemma.name, lemma.kind,
                   lemma.original, lemma.extracted, f"seed={seed}")
    return Obligation(
        kind=LEMMA, label=f"lemma:{lemma.name}", thunk=discharge,
        cache_key=key, encode=_encode_lemma_outcome, decode=decode,
        payload=payload)
