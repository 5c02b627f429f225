"""The unified execution configuration for the proof layers.

Every Echo entry point that discharges obligations -- the verifier
pipeline, the implementation proof, the refactoring engine's differential
checks, the implication proof, the harness statistics -- takes one
``exec=ExecConfig(...)`` parameter instead of a copy-pasted
``jobs=/cache=/telemetry=`` keyword triplet.  The config is an immutable
value object; components derive per-run :class:`~repro.exec.scheduler
.ObligationScheduler` instances from it via :meth:`ExecConfig.scheduler`.

Usage::

    from repro import ExecConfig, verify_aes
    result = verify_aes(exec=ExecConfig(jobs=8, backend="process"))

The config is also where the proof farm is wired up:
``backend="remote"`` plus ``remote_workers=("host:port", ...)`` (dial
out to listening workers) or ``remote_listen="host:port"`` (bind and
let workers dial in) shards obligations across hosts (DESIGN.md §16).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional, Tuple, Union

from .cache import default_cache
from .remote.link import parse_address
from .retry import RetryPolicy, check_count
from .scheduler import BACKENDS, ObligationScheduler
from .telemetry import Telemetry, default_telemetry

__all__ = ["ExecConfig", "RetryPolicy", "coerce_exec_config"]


@dataclass(frozen=True)
class ExecConfig:
    """How proof obligations are executed.

    ``jobs``             worker count; 1 is the guaranteed-deterministic
                         serial path.  None selects ``os.cpu_count()``.
                         For ``backend="remote"`` this caps the *total*
                         in-flight leases across all connected workers.
    ``backend``          'serial' (the reference path), 'process' (true
                         multi-core proving) or 'remote' (a proof farm of
                         socket-connected worker hosts).
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
                         process and remote backends enforce it
                         preemptively (SIGALRM in the worker); it also
                         derives the farm's lease bound, so without it
                         a remote lease never expires.
    ``retries``          a :class:`RetryPolicy`, or an int coerced to one
                         (that many retries, default exponential backoff).
    ``on_error``         'raise' (propagate, the historical behaviour) or
                         'record' (mark the obligation ``errored``).
    ``on_backend_failure``  'raise' (an unusable backend aborts the run)
                         or 'degrade' (fall back remote→process→serial,
                         recording a ``degraded`` telemetry event).
    ``batch_size``       max obligations bundled into one dispatch unit
                         (DESIGN.md §18).  1 disables batching outright
                         (every obligation keeps its own dispatch unit,
                         the pre-batching wire behaviour); must be an
                         integer >= 1.  Batching never changes verdicts
                         -- only how many round trips carry them.  A
                         unit's bytes are bounded by
                         :data:`~repro.exec.scheduler.BATCH_BYTES_CAP`.

    Remote-backend fields (ignored by the local backends):

    ``remote_workers``   addresses of listening workers
                         (``python -m repro.exec.remote.worker --listen
                         PORT``) the coordinator dials out to.
    ``remote_listen``    a ``"host:port"`` bind address (port 0 for
                         ephemeral) workers dial in to
                         (``... --connect host:port``).
    """

    jobs: Optional[int] = 1
    backend: str = "serial"
    cache: Any = None
    telemetry: Optional[Telemetry] = None
    timeout_seconds: Optional[float] = None
    retries: Union[int, RetryPolicy] = 0
    on_error: str = "raise"
    on_backend_failure: str = "raise"
    remote_workers: Tuple[str, ...] = ()
    remote_listen: Optional[str] = None
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
        # Remote fields: list → tuple (hashability), address syntax, and
        # the backend="remote" ↔ worker-source consistency checks.
        workers = self.remote_workers
        if isinstance(workers, list):
            workers = tuple(workers)
            object.__setattr__(self, "remote_workers", workers)
        if not isinstance(workers, tuple):
            raise ValueError(f"remote_workers must be a tuple of "
                             f"'host:port' strings, got {workers!r}")
        for address in workers:
            parse_address(address)
        if self.remote_listen is not None:
            parse_address(self.remote_listen)   # ":0" = any interface
        check_count("batch_size", self.batch_size, 1)
        if self.backend == "remote" and not workers \
                and self.remote_listen is None:
            raise ValueError(
                "backend='remote' needs a worker source: remote_workers="
                "('host:port', ...) to dial out, or remote_listen="
                "'host:port' to accept dial-ins")

    # -- derivation ---------------------------------------------------------

    def scheduler(self) -> ObligationScheduler:
        """A scheduler configured by this config (one per run)."""
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
    #: remote client must never be able to name another tenant's cache.
    JSON_FIELDS = ("jobs", "backend", "timeout_seconds", "retries",
                   "on_error", "on_backend_failure", "remote_workers",
                   "remote_listen", "batch_size")

    def to_json(self) -> dict:
        """The JSON-portable fields of this config (see
        :attr:`JSON_FIELDS`; ``retries`` dumps as the policy's dict,
        ``remote_workers`` as a list)."""
        out = {name: getattr(self, name) for name in self.JSON_FIELDS}
        out.update(retries=self.retries.to_json(),
                   remote_workers=list(self.remote_workers))
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
