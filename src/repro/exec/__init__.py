"""Obligation-level proof execution: scheduling, caching, telemetry.

The three proof layers of the Echo pipeline -- VC discharge
(:mod:`repro.prover.session`), per-transformation equivalence trials
(:mod:`repro.refactor.engine`), and implication lemmas
(:mod:`repro.implication`) -- express their work as uniform
:class:`~repro.exec.obligation.Obligation` values and hand them to an
:class:`~repro.exec.scheduler.ObligationScheduler`, which runs them on
one of three backends -- inline (``backend='serial'`` or ``jobs=1``,
bit-identical to the historical serial path), a process pool
(``backend='process'``, true multi-core proving via the declarative
payloads of :mod:`repro.exec.payload`), or a distributed proof farm
(``backend='remote'``, socket-connected worker hosts,
:mod:`repro.exec.remote`) -- answers hits from the parent's
content-addressed :class:`~repro.exec.cache.ResultCache`, and records
structured :class:`~repro.exec.telemetry.Telemetry` events.

Callers configure all of this through one value object,
:class:`~repro.exec.config.ExecConfig`, threaded as the ``exec=``
parameter of every proof entry point.
"""

from .durable import atomic_write_json, atomic_write_text
from .cache import (
    ResultCache, default_cache, make_key, package_fingerprint,
    theory_fingerprint,
)
from .config import ExecConfig, coerce_exec_config
from .events import TERMINAL_EVENTS, EventSubscription, ObligationEvent
from .retry import RetryPolicy
from .obligation import (
    EQUIV_TRIAL, LEMMA, VC, Obligation, equiv_trial_obligation,
    lemma_obligation, vc_obligation,
)
from .payload import (
    CallPayload, EquivTrialPayload, LemmaPayload, ObligationPayload,
    VCPayload,
)
from .remote import RemoteCoordinator
from .scheduler import (
    BACKENDS, BackendUnusableError, ObligationOutcome, ObligationScheduler,
)
from .telemetry import ExecStats, Telemetry, default_telemetry, percentile

__all__ = [
    "Obligation", "ObligationOutcome", "ObligationScheduler", "BACKENDS",
    "BackendUnusableError",
    "ExecConfig", "RetryPolicy", "coerce_exec_config",
    "ObligationEvent", "EventSubscription", "TERMINAL_EVENTS",
    "ExecStats", "Telemetry", "default_telemetry", "percentile",
    "atomic_write_text", "atomic_write_json",
    "ResultCache", "default_cache", "make_key",
    "package_fingerprint", "theory_fingerprint",
    "vc_obligation", "equiv_trial_obligation", "lemma_obligation",
    "ObligationPayload", "VCPayload", "EquivTrialPayload", "LemmaPayload",
    "CallPayload",
    "VC", "EQUIV_TRIAL", "LEMMA",
    "RemoteCoordinator",
]
