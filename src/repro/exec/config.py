"""The unified execution configuration for the proof layers.

Every Echo entry point that discharges obligations -- the verifier
pipeline, the implementation proof, the refactoring engine's differential
checks, the implication proof, the harness statistics -- takes one
``exec=ExecConfig(...)`` parameter instead of a copy-pasted
``jobs=/cache=/telemetry=`` keyword triplet.  The config is an immutable
value object; components derive :class:`~repro.exec.scheduler
.ObligationScheduler` instances from it via :meth:`ExecConfig.scheduler`.

Usage::

    from repro import ExecConfig, verify_aes
    result = verify_aes(exec=ExecConfig(jobs=8, backend="process"))
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional, Union

from .cache import default_cache
from .retry import RetryPolicy, check_count
from .scheduler import BACKENDS, ObligationScheduler
from .telemetry import Telemetry, default_telemetry

__all__ = ["ExecConfig", "RetryPolicy", "coerce_exec_config"]


@dataclass(frozen=True)
class ExecConfig:
    """How proof obligations are executed.

    ``jobs``             worker count; 1 is the guaranteed-deterministic
                         serial path.  None selects ``os.cpu_count()``.
    ``backend``          'serial' (the reference path) or 'process' (true
                         multi-core proving).
    ``cache``            a :class:`~repro.exec.cache.ResultCache`, None
                         for the process-wide default, or False to
                         disable caching outright.
    ``telemetry``        a :class:`~repro.exec.telemetry.Telemetry`, or
                         None for the component's default (the verifier
                         allocates one per run; bare schedulers fall back
                         to the process-wide log).
    ``timeout_seconds``  per-obligation wall bound; must be positive when
                         given (0 would silently *disable* the worker's
                         SIGALRM instead of enforcing a bound).  The
                         process backend enforces it preemptively
                         (SIGALRM in the worker).
    ``retries``          a :class:`RetryPolicy`, or an int coerced to one
                         (that many retries, default exponential backoff).
    ``on_error``         'raise' (propagate, the historical behaviour) or
                         'record' (mark the obligation ``errored``).
    ``on_backend_failure``  'raise' (an unusable backend aborts the run)
                         or 'degrade' (fall back process→serial,
                         recording a ``degraded`` telemetry event).
    ``batch_size``       max obligations bundled into one dispatch unit
                         (DESIGN.md §18): the process backend cuts a
                         run's misses, in input order, into units of
                         ``min(batch_size, ceil(n / jobs))``.  1
                         disables batching outright (every obligation
                         keeps its own dispatch unit); must be an
                         integer >= 1.  Batching never changes verdicts
                         -- only how many round trips carry them.
    """

    jobs: Optional[int] = 1
    backend: str = "serial"
    cache: Any = None
    telemetry: Optional[Telemetry] = None
    timeout_seconds: Optional[float] = None
    retries: Union[int, RetryPolicy] = 0
    on_error: str = "raise"
    on_backend_failure: str = "raise"
    batch_size: int = 16

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, "
                             f"got {self.backend!r}")
        if self.jobs is not None:
            check_count("jobs", self.jobs, 1)
        if self.on_error not in ("raise", "record"):
            raise ValueError(f"on_error must be 'raise' or 'record', "
                             f"got {self.on_error!r}")
        if self.on_backend_failure not in ("raise", "degrade"):
            raise ValueError(f"on_backend_failure must be 'raise' or "
                             f"'degrade', got {self.on_backend_failure!r}")
        timeout = self.timeout_seconds
        if timeout is not None and (isinstance(timeout, bool)
                                    or timeout <= 0):
            raise ValueError(f"timeout_seconds must be positive, got "
                             f"{timeout!r} (0 would disable "
                             f"the worker-side alarm, not enforce one)")
        # Coerce a plain-int retry count to the equivalent policy so every
        # downstream consumer sees one type (the frozen-dataclass dance).
        object.__setattr__(self, "retries", RetryPolicy.coerce(self.retries))
        check_count("batch_size", self.batch_size, 1)

    # -- derivation ---------------------------------------------------------

    def scheduler(self) -> ObligationScheduler:
        """A scheduler configured by this config.  Its worker pool lives
        until :meth:`~repro.exec.scheduler.ObligationScheduler.close`
        (or the end of its ``with`` block)."""
        return ObligationScheduler(self)

    def resolved_cache(self):
        """The :class:`~repro.exec.cache.ResultCache` this config runs
        against: ``cache=None`` is the process-wide default,
        ``cache=False`` none at all."""
        if self.cache is None:
            return default_cache()
        return None if self.cache is False else self.cache

    def resolved_telemetry(self) -> Telemetry:
        """The telemetry this config records into (``None``: the
        process-wide log)."""
        return self.telemetry if self.telemetry is not None \
            else default_telemetry()

    def with_telemetry(self, telemetry: Telemetry) -> "ExecConfig":
        """This config with ``telemetry`` bound (components that own a
        per-run telemetry push it down to sub-components this way)."""
        return dataclasses.replace(self, telemetry=telemetry)

    # -- wire form ----------------------------------------------------------

    #: Fields that cross a JSON boundary (the serve protocol, the durable
    #: request journal).  ``cache`` and ``telemetry`` are deliberately
    #: absent: they are live objects owned by the executing side -- a
    #: client must never be able to name the daemon's cache.
    JSON_FIELDS = ("jobs", "backend", "timeout_seconds", "retries",
                   "on_error", "on_backend_failure", "batch_size")

    def to_json(self) -> dict:
        """The JSON-portable fields of this config (see
        :attr:`JSON_FIELDS`; ``retries`` dumps as the policy's dict)."""
        out = {name: getattr(self, name) for name in self.JSON_FIELDS}
        out["retries"] = self.retries.to_json()
        return out

    @classmethod
    def from_json(cls, data: dict) -> "ExecConfig":
        """Rebuild a config from :meth:`to_json` output (or a hand-written
        subset).  Unknown keys are rejected -- in particular ``cache`` and
        ``telemetry``, which never travel -- and field validation is the
        constructor's own (``ValueError`` on bad values)."""
        if not isinstance(data, dict):
            raise ValueError(f"exec config must be a JSON object, "
                             f"got {type(data).__name__}")
        unknown = sorted(set(data) - set(cls.JSON_FIELDS))
        if unknown:
            raise ValueError(f"unknown exec config keys: {unknown} "
                             f"(allowed: {sorted(cls.JSON_FIELDS)})")
        kwargs = dict(data)
        retries = kwargs.get("retries")
        if isinstance(retries, dict):
            try:
                kwargs["retries"] = RetryPolicy(**retries)
            except TypeError as exc:
                raise ValueError(f"bad retries policy: {exc}")
        return cls(**kwargs)


def coerce_exec_config(exec: Optional[ExecConfig], *,
                       owner: str) -> ExecConfig:
    """Resolve an entry point's ``exec=`` parameter: type-check an
    explicit config, default to ``ExecConfig()`` when absent."""
    if exec is None:
        return ExecConfig()
    if not isinstance(exec, ExecConfig):
        raise TypeError(
            f"{owner}: exec must be an ExecConfig, got "
            f"{type(exec).__name__}")
    return exec
