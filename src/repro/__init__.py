"""Echo verification refactoring — a full reproduction of Yin, Knight &
Weimer, "Exploiting Refactoring in Formal Verification", DSN 2009.

The package implements the paper's entire stack from scratch in Python:

* :mod:`repro.lang` — MiniAda, a SPARK-Ada-subset substrate (lexer, parser,
  type checker, interpreter, ``--#`` annotations);
* :mod:`repro.logic` — hash-consed terms, rewriting, interval reasoning;
* :mod:`repro.vcgen` — weakest-precondition VC generation with
  exception-freedom checks, a resource budget, and a simplifier
  (SPARK Examiner/Simplifier substitute);
* :mod:`repro.prover` — automatic prover (ground evaluation, congruence
  closure, interval + difference-bound arithmetic, axiom instantiation)
  plus interactive tactic scripts;
* :mod:`repro.refactor` — the transformation engine and the paper's
  transformation library (re-rolling, reverse table lookups, clone
  extraction, splitting, loop forms, ...);
* :mod:`repro.equiv` — per-application semantics-preservation theorems;
* :mod:`repro.spec` — MiniPVS, a functional specification language with
  TCC-generating type checker (PVS substitute);
* :mod:`repro.extract` / :mod:`repro.implication` — reverse synthesis and
  the lemma-based implication proof;
* :mod:`repro.metrics` — the section-5.2 metrics analyzer;
* :mod:`repro.aes` — the complete AES case study (FIPS-197 theory,
  optimized T-table implementation, 14 transformation blocks, annotations);
* :mod:`repro.defects` — the section-7 seeded-defect experiment;
* :mod:`repro.harness` — regenerates every table and figure of the paper;
* :mod:`repro.exec` — the obligation execution layer: scheduling over
  serial/process backends, content-addressed result caching, and
  structured telemetry, configured through :class:`~repro.exec.ExecConfig`;
* :mod:`repro.serve` — verification-as-a-service: an asyncio daemon
  (``python -m repro.serve``) with a durable obligation queue, two
  admission-controlled priority lanes, warm caches, and live per-VC
  event streaming over a line-delimited JSON protocol.

Quickstart::

    from repro import ExecConfig, verify_aes
    result = verify_aes()       # the full AES case study (a few minutes)
    print(result.summary())

    # multi-core proving with a shared incremental cache
    from repro import ResultCache
    cache = ResultCache()
    result = verify_aes(exec=ExecConfig(jobs=4, backend="process",
                                        cache=cache))
"""

from .core import (
    EchoResult, EchoVerifier, MetricsGate, RefactoringProcess, verify_aes,
)
from .exec import (
    TERMINAL_EVENTS, EventSubscription, ExecConfig, ObligationEvent,
    ResultCache, RetryPolicy, Telemetry, default_telemetry,
)
from .incr import IncrementalStats, ManifestStore

__version__ = "1.0.0"

__all__ = ["EchoVerifier", "EchoResult", "MetricsGate",
           "RefactoringProcess", "verify_aes",
           "ExecConfig", "ResultCache", "RetryPolicy", "Telemetry",
           # the event-subscription API (DESIGN.md §14 taxonomy table):
           # subscribe via Telemetry.subscribe, observe ObligationEvent,
           # use TERMINAL_EVENTS for end-of-life accounting.
           "ObligationEvent", "EventSubscription", "TERMINAL_EVENTS",
           "default_telemetry",
           # incremental re-verification (DESIGN.md §15)
           "ManifestStore", "IncrementalStats",
           "__version__"]
