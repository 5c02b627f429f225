"""Structured events emitted by the obligation execution layer.

Every state change of an obligation -- submitted to the scheduler, started
on a worker, finished, served from cache, timed out, errored, retried,
skipped by early exit -- is recorded as one :class:`ObligationEvent` in the
run's :class:`~repro.exec.telemetry.Telemetry` log.  Events are plain data
(JSON-dumpable) so benchmark harnesses can post-process them.

Fault-tolerance events extend the life cycle (DESIGN.md §12):

* ``CRASHED`` -- the obligation was in flight when a pool worker died; it
  is blamed once and requeued (non-terminal: the obligation lives on).
* ``QUARANTINED`` -- the obligation killed a worker twice and is pulled
  from circulation with a ``crashed`` outcome (terminal).
* ``RETRIED_OK`` -- the obligation eventually succeeded after at least
  one retry or crash-requeue (non-terminal bookkeeping; the matching
  ``FINISHED`` event is the terminal one).
* ``DEGRADED`` -- the scheduler abandoned an unusable backend and fell
  back along the remote→process→serial chain (``kind='exec'``; not tied
  to a single obligation).
* ``WORKER_ABANDONED`` -- pool shutdown left an unresponsive worker
  behind (``kind='exec'``; the obligation itself was already recorded
  ``timed_out``).
* ``DISPATCHED`` -- one dispatch unit (a solo obligation or a batch of
  ``(index, payload, token)`` entries) completed its round trip to a
  worker (``kind='exec'``; non-terminal bookkeeping).  ``wall``
  carries the *dispatch overhead*: round-trip wall minus the summed
  per-item execution walls -- the pickling/wire/queue cost the batching
  layer (DESIGN.md §18) exists to amortize.  ``detail`` is
  ``items=<K>``; ``K > 1`` marks a batched dispatch.
* ``STORE_MISS`` -- an incremental manifest fell back to cold
  (``kind='manifest'``; non-terminal bookkeeping).  ``detail`` is the
  reason: a :func:`repro.exec.durable.load_record` miss reason
  (``absent``, ``torn``, ``schema``, ``scope``) for a load, or
  ``evicted`` when a manifest entry's verdict is gone from the result
  cache.

Live subscription: a :class:`~repro.exec.telemetry.Telemetry` is not only
a log to post-process after the run -- callers can attach a callback with
``Telemetry.subscribe`` and observe every event as it is recorded.  The
returned :class:`EventSubscription` detaches the callback on ``close()``
(or on leaving its ``with`` block); the serve layer
(:mod:`repro.serve`) bridges obligation events to connected clients this
way.  The full taxonomy is tabulated in DESIGN.md §14.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from typing import Callable, Optional

__all__ = [
    "ObligationEvent", "EventSubscription",
    "SUBMITTED", "STARTED", "FINISHED", "CACHED", "TIMED_OUT", "ERRORED",
    "RETRIED", "SKIPPED", "CRASHED", "QUARANTINED", "DEGRADED",
    "RETRIED_OK", "WORKER_ABANDONED", "DISPATCHED", "STORE_MISS",
    "TERMINAL_EVENTS",
]

SUBMITTED = "submitted"
STARTED = "started"
FINISHED = "finished"
CACHED = "cached"
TIMED_OUT = "timed_out"
ERRORED = "errored"
RETRIED = "retried"
SKIPPED = "skipped"
CRASHED = "crashed"
QUARANTINED = "quarantined"
DEGRADED = "degraded"
RETRIED_OK = "retried_ok"
WORKER_ABANDONED = "worker_abandoned"
DISPATCHED = "dispatched"
STORE_MISS = "store_miss"

#: Events that end an obligation's life (used for queue-depth accounting).
#: ``CRASHED`` is deliberately absent -- a crashed-once obligation is
#: requeued; ``QUARANTINED`` is its terminal event when it crashes again.
TERMINAL_EVENTS = frozenset({FINISHED, CACHED, TIMED_OUT, ERRORED, SKIPPED,
                             QUARANTINED})


@dataclass(frozen=True)
class ObligationEvent:
    """One state change of one obligation.

    ``t`` is seconds since the owning telemetry's epoch; ``wall`` is the
    obligation's execution time (only meaningful on terminal events);
    ``queue_depth`` is the number of submitted-but-unfinished obligations
    at the moment the event was recorded.
    """

    event: str
    kind: str          # 'vc' | 'equiv_trial' | 'lemma' | ...
    label: str
    t: float
    wall: float = 0.0
    queue_depth: int = 0
    detail: str = ""

    def to_json(self) -> dict:
        return asdict(self)


class EventSubscription:
    """A live feed of :class:`ObligationEvent` attached to one
    :class:`~repro.exec.telemetry.Telemetry`.

    Obtained from ``Telemetry.subscribe(callback)``.  The callback runs
    synchronously on whichever thread records the event (scheduler
    worker threads included), *after* the telemetry's internal lock is
    released -- it must be fast and must not call back into the same
    telemetry's ``record``.  A callback that raises is detached
    immediately (a broken subscriber must not take the proof run down
    with it); the offending exception is kept on :attr:`error` so the
    subscriber's owner can notice the feed died rather than silently
    losing events.

    ``close()`` detaches idempotently; the instance is also a context
    manager (``with telemetry.subscribe(cb): ...``).
    """

    __slots__ = ("_callback", "_detach", "_lock", "error")

    def __init__(self, callback: Callable[[ObligationEvent], None],
                 detach: Callable[["EventSubscription"], None]):
        self._callback = callback
        self._detach = detach
        self._lock = threading.Lock()
        #: The exception that killed the feed, if any (None while live).
        self.error: Optional[BaseException] = None

    @property
    def active(self) -> bool:
        return self._callback is not None

    def deliver(self, event: ObligationEvent) -> None:
        """Invoke the callback (telemetry-side; not for external use)."""
        callback = self._callback
        if callback is None:
            return
        try:
            callback(event)
        except Exception as exc:   # noqa: BLE001 - subscriber fault boundary
            self.error = exc
            self.close()

    def close(self) -> None:
        with self._lock:
            if self._callback is None:
                return
            self._callback = None
        self._detach(self)

    def __enter__(self) -> "EventSubscription":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
