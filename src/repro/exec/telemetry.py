"""Telemetry for the obligation execution layer.

A :class:`Telemetry` instance owns a thread-safe structured event log
(:mod:`repro.exec.events`) plus aggregate counters, and renders them as

* an :class:`ExecStats` snapshot (attached to
  :class:`~repro.core.results.EchoResult` after a verification run),
* a text summary (the "Obligation execution" section of the harness
  report),
* a JSON dump (``results/telemetry.json``, consumed by benchmarks).

A process-wide default instance (:func:`default_telemetry`) collects
events from components that were not handed an explicit telemetry, so the
experiment runner can report on everything that happened in the process.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .durable import atomic_write_text
from .events import (
    CACHED, CRASHED, DEGRADED, DISPATCHED, ERRORED, FINISHED, QUARANTINED,
    RETRIED, RETRIED_OK, SKIPPED, STARTED, STORE_MISS, SUBMITTED,
    TERMINAL_EVENTS, TIMED_OUT, WORKER_ABANDONED, EventSubscription,
    ObligationEvent,
)

__all__ = ["ExecStats", "Telemetry", "default_telemetry", "percentile"]


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty).

    Classical nearest-rank: the smallest value with at least ``q`` of the
    sample at or below it, i.e. ``values[ceil(q * n) - 1]``.  Deterministic
    across adjacent sample sizes -- unlike ``int(round(...))``, whose
    banker's rounding made the p50 of an even-length sample flip between
    the lower and upper middle element as ``n`` grew.  The epsilon absorbs
    binary-float error in ``q * n`` so an exact rank never rounds up.
    """
    if not sorted_values:
        return 0.0
    n = len(sorted_values)
    rank = math.ceil(q * n - 1e-9)
    return sorted_values[max(0, min(n - 1, rank - 1))]


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of an arbitrary sample (0.0 when empty).

    The public face of the deterministic percentile the exec stats use,
    for callers aggregating their own latency samples (the serve layer's
    per-lane request latencies); sorts a copy, so the input order is
    irrelevant and unchanged.
    """
    return _percentile(sorted(values), q)


@dataclass
class ExecStats:
    """Aggregate snapshot of one telemetry log."""

    #: terminal obligations per kind (computed + cached + timed out + ...).
    obligations: Dict[str, int] = field(default_factory=dict)
    #: obligations whose thunk actually ran to completion, per kind.
    computed: Dict[str, int] = field(default_factory=dict)
    #: obligations served from the result cache, per kind.
    cached: Dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    timeouts: int = 0
    errors: int = 0
    retries: int = 0
    skipped: int = 0
    #: fault-tolerance taxonomy (DESIGN.md §12) ------------------------------
    crashes: int = 0            # worker-killing crash blames (non-terminal)
    quarantined: int = 0        # obligations pulled after a second kill
    degraded: int = 0           # backend fallbacks (remote→process→serial)
    retried_ok: int = 0         # obligations that succeeded after retries
    abandoned_workers: int = 0  # unresponsive workers left behind at shutdown
    wall_seconds: float = 0.0       # telemetry epoch -> last event
    busy_seconds: float = 0.0       # sum of per-obligation execution walls
    p50_seconds: float = 0.0        # percentile of computed-obligation walls
    p95_seconds: float = 0.0
    max_queue_depth: int = 0
    #: dispatch-unit accounting (DESIGN.md §18) ------------------------------
    batched: int = 0                # dispatch units carrying > 1 obligation
    batch_items: int = 0            # obligations shipped inside those units
    dispatch_p50_seconds: float = 0.0   # percentile of dispatch overheads
    dispatch_p95_seconds: float = 0.0   # (all units, solo and batched)
    #: durable-store cold fallbacks (DESIGN.md §20) -------------------------
    #: by reason: ``absent``, ``torn``, ``schema``, ``scope``, ``evicted``.
    store_misses: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.obligations.values())

    @property
    def hit_rate(self) -> float:
        keyed = self.cache_hits + self.cache_misses
        return self.cache_hits / keyed if keyed else 0.0

    @property
    def failures(self) -> Dict[str, int]:
        """The structured failure taxonomy: every way an obligation (or
        the backend under it) misbehaved during the run."""
        return {
            "timeout": self.timeouts,
            "crashed": self.crashes,
            "quarantined": self.quarantined,
            "degraded": self.degraded,
            "retried_ok": self.retried_ok,
        }

    def summary(self) -> str:
        kinds = ", ".join(f"{kind}: {n}"
                          for kind, n in sorted(self.obligations.items())) \
            or "none"
        lines = [
            f"obligations                {self.total} ({kinds})",
            f"computed / cached          "
            f"{sum(self.computed.values())} / {sum(self.cached.values())}",
            f"cache hit rate             {100.0 * self.hit_rate:.1f}% "
            f"({self.cache_hits} hits, {self.cache_misses} misses)",
            f"discharge time p50 / p95   {self.p50_seconds * 1000:.1f} ms / "
            f"{self.p95_seconds * 1000:.1f} ms",
            f"busy / wall time           {self.busy_seconds:.2f} s / "
            f"{self.wall_seconds:.2f} s",
            f"max queue depth            {self.max_queue_depth}",
        ]
        if self.batched:
            lines.append(
                f"batched dispatches         {self.batched} "
                f"({self.batch_items} obligations; dispatch p50 / p95 "
                f"{self.dispatch_p50_seconds * 1000:.1f} ms / "
                f"{self.dispatch_p95_seconds * 1000:.1f} ms)")
        if self.timeouts or self.errors or self.retries or self.skipped:
            lines.append(
                f"timeouts / errors / retries / skipped  "
                f"{self.timeouts} / {self.errors} / {self.retries} / "
                f"{self.skipped}")
        if self.crashes or self.quarantined or self.degraded \
                or self.retried_ok or self.abandoned_workers:
            lines.append(
                f"crashes / quarantined / degraded / retried-ok  "
                f"{self.crashes} / {self.quarantined} / {self.degraded} / "
                f"{self.retried_ok}")
            if self.abandoned_workers:
                lines.append(f"abandoned workers          "
                             f"{self.abandoned_workers}")
        if self.store_misses:
            lines.append("store misses               " + ", ".join(
                f"{reason}: {n}"
                for reason, n in sorted(self.store_misses.items())))
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "obligations": dict(self.obligations),
            "computed": dict(self.computed),
            "cached": dict(self.cached),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "retries": self.retries,
            "skipped": self.skipped,
            "failures": self.failures,
            "abandoned_workers": self.abandoned_workers,
            "wall_seconds": self.wall_seconds,
            "busy_seconds": self.busy_seconds,
            "p50_seconds": self.p50_seconds,
            "p95_seconds": self.p95_seconds,
            "max_queue_depth": self.max_queue_depth,
            "batched": self.batched,
            "batch_items": self.batch_items,
            "dispatch_p50_seconds": self.dispatch_p50_seconds,
            "dispatch_p95_seconds": self.dispatch_p95_seconds,
            "store_misses": dict(self.store_misses),
        }


class Telemetry:
    """Thread-safe structured event log with aggregate counters."""

    def __init__(self):
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()
        self._events: List[ObligationEvent] = []
        self._depth = 0
        self._max_depth = 0
        self._subscribers: List[EventSubscription] = []

    # -- recording ----------------------------------------------------------

    def record(self, event: str, kind: str, label: str,
               wall: float = 0.0, detail: str = "") -> ObligationEvent:
        with self._lock:
            if event == SUBMITTED:
                self._depth += 1
                self._max_depth = max(self._max_depth, self._depth)
            elif event in TERMINAL_EVENTS:
                self._depth = max(0, self._depth - 1)
            ev = ObligationEvent(
                event=event, kind=kind, label=label,
                t=time.perf_counter() - self._epoch,
                wall=wall, queue_depth=self._depth, detail=detail)
            self._events.append(ev)
            subscribers = list(self._subscribers) if self._subscribers \
                else None
        # Deliver outside the lock: a subscriber that blocks (or calls
        # back into this telemetry's readers) must not deadlock recording
        # threads.  Events from concurrent recorders may therefore reach
        # a subscriber slightly out of log order; the authoritative order
        # is the log's.
        if subscribers:
            for subscription in subscribers:
                subscription.deliver(ev)
        return ev

    # -- live subscription --------------------------------------------------

    def subscribe(self, callback) -> EventSubscription:
        """Attach ``callback(event)`` to every future :meth:`record`.

        Returns an :class:`~repro.exec.events.EventSubscription`; close
        it (or use it as a context manager) to detach.  See the class
        docs for the delivery contract (synchronous, recorder-thread,
        raising detaches)."""
        subscription = EventSubscription(callback, self._unsubscribe)
        with self._lock:
            self._subscribers.append(subscription)
        return subscription

    def _unsubscribe(self, subscription: EventSubscription) -> None:
        with self._lock:
            try:
                self._subscribers.remove(subscription)
            except ValueError:
                pass   # already detached

    # -- reading ------------------------------------------------------------

    def events(self) -> List[ObligationEvent]:
        with self._lock:
            return list(self._events)

    def stats(self) -> ExecStats:
        events = self.events()
        stats = ExecStats()
        walls: List[float] = []
        dispatch_walls: List[float] = []
        last_t = 0.0
        for ev in events:
            last_t = max(last_t, ev.t)
            stats.max_queue_depth = max(stats.max_queue_depth,
                                        ev.queue_depth)
            if ev.event in TERMINAL_EVENTS:
                stats.obligations[ev.kind] = \
                    stats.obligations.get(ev.kind, 0) + 1
            if ev.event == FINISHED:
                stats.computed[ev.kind] = stats.computed.get(ev.kind, 0) + 1
                # Process and remote results prefix the detail with
                # ``worker=... served=...``; ``keyed`` is the last token.
                keyed = ev.detail.rpartition(" ")[2] == "keyed"
                stats.cache_misses += 1 if keyed else 0
                stats.busy_seconds += ev.wall
                walls.append(ev.wall)
            elif ev.event == CACHED:
                stats.cached[ev.kind] = stats.cached.get(ev.kind, 0) + 1
                stats.cache_hits += 1
                stats.busy_seconds += ev.wall
            elif ev.event == TIMED_OUT:
                stats.timeouts += 1
            elif ev.event == ERRORED:
                stats.errors += 1
            elif ev.event == RETRIED:
                stats.retries += 1
            elif ev.event == SKIPPED:
                stats.skipped += 1
            elif ev.event == CRASHED:
                stats.crashes += 1
            elif ev.event == QUARANTINED:
                stats.quarantined += 1
            elif ev.event == DEGRADED:
                stats.degraded += 1
            elif ev.event == RETRIED_OK:
                stats.retried_ok += 1
            elif ev.event == WORKER_ABANDONED:
                stats.abandoned_workers += 1
            elif ev.event == STORE_MISS:
                stats.store_misses[ev.detail] = \
                    stats.store_misses.get(ev.detail, 0) + 1
            elif ev.event == DISPATCHED:
                dispatch_walls.append(ev.wall)
                items = 1
                if ev.detail.startswith("items="):
                    try:
                        items = int(ev.detail[len("items="):])
                    except ValueError:
                        pass
                if items > 1:
                    stats.batched += 1
                    stats.batch_items += items
        walls.sort()
        stats.p50_seconds = _percentile(walls, 0.50)
        stats.p95_seconds = _percentile(walls, 0.95)
        dispatch_walls.sort()
        stats.dispatch_p50_seconds = _percentile(dispatch_walls, 0.50)
        stats.dispatch_p95_seconds = _percentile(dispatch_walls, 0.95)
        stats.wall_seconds = last_t
        return stats

    def summary(self) -> str:
        return self.stats().summary()

    def to_json(self, context: Optional[dict] = None) -> dict:
        """``context`` records run-level metadata alongside the log --
        the harness stores the execution configuration (backend, jobs,
        timeout) here so a telemetry dump is self-describing."""
        out = {
            "stats": self.stats().to_json(),
            "events": [ev.to_json() for ev in self.events()],
        }
        if context:
            out["context"] = dict(context)
        return out

    def dump_json(self, path, context: Optional[dict] = None) -> None:
        """Write the JSON dump atomically (temp file + ``os.replace``):
        a crashed or concurrent run can never leave ``telemetry.json``
        truncated -- readers see the previous complete dump or this one."""
        atomic_write_text(path, json.dumps(self.to_json(context), indent=2))


_DEFAULT = Telemetry()


def default_telemetry() -> Telemetry:
    """The process-wide telemetry used when no explicit instance is given."""
    return _DEFAULT
