"""Declarative, picklable proof-obligation payloads.

The serial scheduler backend executes an obligation's
``thunk`` -- a closure over live parent-process objects (typed packages,
provers, evaluators).  Closures do not pickle, so the process backend
instead ships a *payload*: a declarative spec naming exactly the inputs
the discharge depends on (the VC term and prover configuration, the
equivalence-trial initial state and program pair, the lemma identity and
theories), from which the worker reconstructs the thunk on its side of
the process boundary.

Everything a payload carries is picklable by construction: MiniAda and
MiniPVS ASTs are pure dataclass trees, and logic terms route through the
structural wire format of :mod:`repro.logic.wire`, which re-interns them
in the worker so hash-consing identity (``__eq__ is is``) holds there
exactly as it does in the parent.

Each payload's :meth:`~ObligationPayload.run` calls the same function
the parent-side thunk calls, and carries exactly that function's inputs:
a VC goes through :func:`repro.prover.session.discharge_vc`, a trial
through :func:`repro.equiv.differential._compare`, a lemma through
:func:`repro.implication.prover.discharge_lemma` (DESIGN.md §11).

Worker-side context is memoized per worker, keyed by content
fingerprints: a package is re-analyzed once per worker (not once per VC),
and theory evaluator pairs are reused per theory pair.  The memos live
in :func:`worker_state`, which exists only in pool workers, so they live
as long as the worker -- that is, as long as its scheduler's pool: one
search for the planner, one proof for the other entry points -- and
never accumulate in the parent.  Provers are the
deliberate exception -- ``discharge_vc`` constructs them *per VC* on
both sides, keeping every discharge a pure function of the payload's
fields no matter which sibling VCs a worker saw first.  Reconstruction
is deterministic -- ``analyze`` of the same AST, ``build_map``/
``generate_lemmas`` of the same theories -- so a payload discharged in a
worker produces the same result the parent-side thunk would have
produced.

Results travel back through ``encode_result``, which runs worker-side
and maps the raw value onto plain data (the same codecs the on-disk
cache layer uses, where those exist).  The parent inverts it with the
obligation's own ``decode``, so e.g. a lemma outcome is re-attached to
the *parent's* lemma object exactly as a disk-cache replay would be; an
obligation without ``decode`` receives the wire value as-is.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = [
    "ObligationPayload", "VCPayload", "EquivTrialPayload", "LemmaPayload",
    "CallPayload", "start_worker", "worker_state",
]


class ObligationPayload:
    """One schedulable unit of proof work as declarative, picklable data.

    Subclasses implement :meth:`run` (worker-side: rebuild context and
    execute) and may override the result codecs.  Instances must be
    picklable; keep fields to ASTs, terms, strings, and numbers.

    Execution semantics are **at-least-once**: crash recovery
    (DESIGN.md §12) re-ships a payload whose worker died, and the retry
    policy re-runs one that raised transiently, so :meth:`run` must be
    idempotent -- a pure function of the payload's fields, like every
    proof discharge is.  A payload that kills its worker outright
    (``os._exit``, a segfaulting extension) is blamed, re-verified solo,
    and quarantined with a ``crashed`` outcome if it kills again; it
    cannot abort the surrounding run.
    """

    def run(self) -> Any:
        raise NotImplementedError

    def encode_result(self, value: Any) -> Any:
        """Worker-side: map the raw result onto picklable plain data
        (inverted parent-side by the obligation's ``decode``)."""
        return value


# ---------------------------------------------------------------------------
# Worker-side state (per worker process, keyed by content fingerprints)
# ---------------------------------------------------------------------------

#: This worker's state, by name.  None outside a pool worker: the pool's
#: initializer (:func:`start_worker`) makes it in each worker as it
#: starts, so nothing kept here ever accumulates in the parent.
_WORKER_STATE: Optional[Dict[str, Any]] = None


def start_worker() -> None:
    """The worker pool's initializer: runs in each worker as it starts."""
    global _WORKER_STATE
    _WORKER_STATE = {}


def worker_state(name: str, factory: Callable[[], Any]):
    """This worker's ``name`` entry, made by ``factory`` on first use and
    kept for the worker's life.  Outside a worker every call gets a
    fresh ``factory()``."""
    if _WORKER_STATE is None:
        return factory()
    value = _WORKER_STATE.get(name)
    if value is None:
        value = _WORKER_STATE[name] = factory()
    return value


def _typed_package(fp: str, package):
    """Analyze ``package`` once per worker."""
    cache = worker_state("typed", dict)
    typed = cache.get(fp)
    if typed is None:
        from ..lang import analyze
        typed = cache[fp] = analyze(package)
    return typed


def _theory_context(original_fp: str, extracted_fp: str,
                    original, extracted):
    """(amap, lemmas-by-name, orig evaluator, ext evaluator) for one
    theory pair, rebuilt deterministically once per worker."""
    cache = worker_state("theories", dict)
    key = (original_fp, extracted_fp)
    ctx = cache.get(key)
    if ctx is None:
        from ..extract.mapper import build_map
        from ..implication.lemmas import generate_lemmas
        from ..spec import SpecEvaluator
        amap = build_map(original, extracted)
        lemmas = {lemma.name: lemma
                  for lemma in generate_lemmas(original, amap)}
        ctx = cache[key] = (amap, lemmas, SpecEvaluator(original),
                            SpecEvaluator(extracted))
    return ctx


# The process backend forks workers from a parent that may hold the
# interning-table lock on another thread at fork time; give the child a
# fresh lock (its private table copy has no other threads) so decoding
# terms in the worker can never inherit a forever-held lock.
def _reinit_locks_after_fork() -> None:
    import threading

    from ..logic.terms import term_table
    term_table._lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reinit_locks_after_fork)


# ---------------------------------------------------------------------------
# VC discharge
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VCPayload(ObligationPayload):
    """Discharge of one verification condition: the inputs of
    :func:`repro.prover.session.discharge_vc`, the function the session's
    inline thunk calls (automatic prover, then the subprogram's
    interactive proof scripts).

    ``package`` is the MiniAda AST (re-analyzed worker-side, memoized on
    ``package_fp``); ``term`` is the simplified VC (re-interned via the
    wire format); ``scripts`` are the :class:`~repro.prover.tactics
    .ProofScript` values to try in order on an auto-prover miss.  The
    worker's provers share its process-wide normalization cache, an
    accelerator that cannot move a verdict.
    """

    package: Any                   # repro.lang.ast.Package
    package_fp: str
    subprogram: str
    term: Any                      # repro.logic.terms.Term
    scripts: Tuple[Any, ...] = ()

    def run(self):
        from ..logic.normcache import default_norm_cache
        from ..prover.session import discharge_vc
        return discharge_vc(_typed_package(self.package_fp, self.package),
                            self.subprogram, self.term, self.scripts,
                            shared=default_norm_cache())

    def encode_result(self, value):
        from .obligation import _encode_vc_result
        return _encode_vc_result(value)


# ---------------------------------------------------------------------------
# Equivalence trials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivTrialPayload(ObligationPayload):
    """One differential trial: run both program versions from ``initial``
    and compare final states.  The result (a
    :class:`~repro.equiv.differential.Counterexample` or None) is plain
    frozen data and pickles as-is."""

    left_package: Any              # repro.lang.ast.Package
    right_package: Any
    left_fp: str
    right_fp: str
    left_name: str
    right_name: str
    initial: Any                   # State: name -> int/bool/tuple

    def run(self):
        from ..equiv.differential import _compare
        left = _typed_package(self.left_fp, self.left_package)
        right = _typed_package(self.right_fp, self.right_package)
        return _compare(left, self.left_name, right, self.right_name,
                        dict(self.initial))


# ---------------------------------------------------------------------------
# Implication lemmas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaPayload(ObligationPayload):
    """One implication-lemma discharge, identified by lemma name within a
    theory pair.  The architectural map, the lemma list, and the
    evaluator pair are rebuilt deterministically worker-side (memoized on
    the theory fingerprints)."""

    original: Any                  # repro.spec.ast.Theory
    extracted: Any
    original_fp: str
    extracted_fp: str
    lemma_name: str
    seed: int

    def run(self):
        from ..implication.prover import discharge_lemma
        amap, lemmas, orig_eval, ext_eval = _theory_context(
            self.original_fp, self.extracted_fp,
            self.original, self.extracted)
        lemma = lemmas.get(self.lemma_name)
        if lemma is None:
            raise KeyError(f"lemma {self.lemma_name!r} not generated for "
                           f"this theory pair")
        return discharge_lemma(lemma, self.original, self.extracted, amap,
                               orig_eval, ext_eval, seed=self.seed)

    def encode_result(self, value):
        from .obligation import _encode_lemma_outcome
        return _encode_lemma_outcome(value)


# ---------------------------------------------------------------------------
# Generic function-call payload
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CallPayload(ObligationPayload):
    """Apply a module-level function to picklable arguments.

    The escape hatch for custom obligations that want to ride the process
    backend: ``fn`` must be importable by qualified name (pickling a
    lambda or inner function fails at submission time, loudly).
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    def run(self):
        return self.fn(*self.args, **dict(self.kwargs))
