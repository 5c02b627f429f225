"""The work-queue scheduler for proof obligations.

``ObligationScheduler.run`` takes a list of :class:`Obligation` and
returns one :class:`ObligationOutcome` per obligation, **in input order**
regardless of completion order.  Three execution backends:

* ``backend='serial'`` (or ``jobs == 1``) -- the guaranteed serial
  fallback and the reference every differential gate compares against:
  obligations run inline, one after another, on the calling thread,
  performing exactly the work the pre-scheduler code ran, in the same
  order.
* ``backend='process'`` -- a ``concurrent.futures.ProcessPoolExecutor``
  for true multi-core proving.  The parent ships each obligation's
  declarative ``payload`` (:mod:`repro.exec.payload`); terms inside it
  cross the boundary via the structural wire format
  (:mod:`repro.logic.wire`), which re-interns them worker-side so
  hash-consing identity survives.
* ``backend='remote'`` -- a proof farm (:mod:`repro.exec.remote`):
  obligations are *leased* to worker processes on other hosts over
  sockets, shipping the same payloads in the same wire format.

The process and remote backends share one dispatch loop
(:meth:`ObligationScheduler._run_units`, DESIGN.md §11): it chains
groups, settles cache hits and payloadless obligations in the parent,
cuts the work into dispatch units before anything ships, decodes
results, fills the cache, records telemetry, and runs the single blame
→ solo re-run → quarantine sequence of DESIGN.md §12.  Below it sits a
narrow transport -- submit a unit, poll for events, close -- with two
implementations: :class:`_PoolTransport` (a local process pool) and
:class:`_SocketTransport` (a :class:`~repro.exec.remote.RemoteCoordinator`).

Obligations sharing a ``group`` execute serially in submission order on
every backend; distinct groups and ungrouped obligations fan out freely.
The cache and telemetry always live in the parent, so both behave
identically across backends.  The per-obligation timeout is a hard
worker-side ``SIGALRM`` bound; a worker that fails to honour it is
abandoned by a parent-side fallback deadline.

Fault tolerance (DESIGN.md §12).  Transient failures are retried under a
:class:`~repro.exec.retry.RetryPolicy`; a thunk that still raises either
propagates (``on_error='raise'``) or is recorded ``errored``
(``on_error='record'``).  A lost worker blames every obligation it held;
blamed obligations re-run solo, and one blamed ``QUARANTINE_AFTER``
times is quarantined with a ``crashed`` outcome.  A backend that cannot
make progress raises :class:`BackendUnusableError`
(``on_backend_failure='raise'``) or degrades along
``remote → process → serial`` (``on_backend_failure='degrade'``).
"""

from __future__ import annotations

import io
import os
import pickle
import signal
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait as _fut_wait,
)
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from . import events as ev
from .obligation import Obligation
from .payload import make_batch
from .retry import RetryPolicy

if TYPE_CHECKING:
    from .config import ExecConfig

__all__ = ["ObligationOutcome", "ObligationScheduler", "BACKENDS",
           "BackendUnusableError"]

#: Recognized execution backends, in increasing order of isolation.
BACKENDS = ("serial", "process", "remote")

#: Fallback taken by ``on_backend_failure='degrade'`` when a backend is
#: unusable; ``serial`` has no fallback -- it cannot fail to exist.
DEGRADE_CHAIN = {"remote": "process", "process": "serial"}

OK = "ok"
CACHED = "cached"
TIMED_OUT = "timed_out"
ERRORED = "errored"
SKIPPED = "skipped"
CRASHED = "crashed"

#: Lost-worker blames after which an obligation is quarantined.
QUARANTINE_AFTER = 2


@dataclass
class ObligationOutcome:
    obligation: Obligation
    status: str          # ok | cached | timed_out | errored | skipped | crashed
    value: object = None
    wall_seconds: float = 0.0
    attempts: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status in (OK, CACHED)


class BackendUnusableError(RuntimeError):
    """The selected execution backend cannot make progress at all --
    distinct from any single obligation failing.  Raised to the caller
    under ``on_backend_failure='raise'``; consumed by the degradation
    chain under ``on_backend_failure='degrade'``."""

    def __init__(self, backend: str, reason: str):
        super().__init__(f"backend {backend!r} unusable: {reason}")
        self.backend = backend
        self.reason = reason


class _HardTimeout(BaseException):
    """Worker-side: the per-obligation SIGALRM fired.  A BaseException so
    no ``except Exception`` inside a discharge can swallow it."""


def _retrying(run: Callable[[], object], retry_policy: RetryPolicy,
              token: str, on_retry: Callable[[Exception], None]) -> tuple:
    """Call ``run`` until it returns or ``retry_policy`` is exhausted,
    sleeping the policy's deterministic backoff (``token`` feeds the
    jitter, so every backend and host sleeps the same schedule) and
    reporting each retried exception to ``on_retry``.  Returns ``(value,
    attempts, last exception or None)``."""
    attempts = 0
    while True:
        attempts += 1
        try:
            return run(), attempts, None
        except Exception as exc:   # noqa: BLE001 - boundary by design
            if attempts > retry_policy.retries:
                return None, attempts, exc
            on_retry(exc)
            pause = retry_policy.delay(attempts, token)
            if pause:
                time.sleep(pause)


def _process_worker(index: int, payload, retry_policy: RetryPolicy,
                    timeout_seconds: Optional[float], token: str) -> tuple:
    """Execute one obligation payload in a worker.

    Returns ``(index, status, wire_value, wall, attempts, retry_errors,
    exception-or-None)`` -- always plain picklable data; exceptions are
    only shipped as objects when they themselves pickle.  ``status`` is
    ``'ok'``, ``'timed_out'`` (the hard per-obligation deadline fired) or
    ``'errored'``.  The timeout budget covers the whole obligation,
    retries *and their backoff sleeps* included.
    """
    started = time.perf_counter()
    retry_errors: List[str] = []
    alarmed = False
    if timeout_seconds and hasattr(signal, "SIGALRM"):
        def _on_alarm(signum, frame):
            raise _HardTimeout()

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout_seconds)
        alarmed = True
    try:
        wire, attempts, exc = _retrying(
            lambda: payload.encode_result(payload.run()), retry_policy,
            token, lambda exc: retry_errors.append(str(exc)))
    except _HardTimeout:
        return (index, "timed_out", None, time.perf_counter() - started,
                len(retry_errors) + 1, tuple(retry_errors), None)
    finally:
        if alarmed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - started
    if exc is None:
        return (index, "ok", wire, wall, attempts, tuple(retry_errors),
                None)
    try:
        pickle.dumps(exc)
    except Exception:   # noqa: BLE001 - anything may fail to pickle
        exc_obj = None
    else:
        exc_obj = exc
    return (index, "errored", f"{type(exc).__name__}: {exc}", wall,
            attempts, tuple(retry_errors), exc_obj)


def _batch_worker(batch, retry_policy: RetryPolicy,
                  timeout_seconds: Optional[float]) -> tuple:
    """Execute one :class:`~repro.exec.payload.BatchPayload` in a pool
    worker: absorb the hoisted warm normalization batches exactly once,
    then run each entry through the same per-item machinery a solo
    dispatch uses (:func:`_process_worker` installs and clears its own
    alarm per entry, so per-item timeout, retry, and jitter accounting
    are identical to unbatched dispatch).  Returns one standard result
    tuple per entry, in entry order."""
    from .payload import _absorb_warm
    for warm_key, warm_norms in batch.warm:
        _absorb_warm(warm_key, warm_norms)
    return tuple(
        _process_worker(index, payload, retry_policy, timeout_seconds,
                        token)
        for index, payload, token, _key in batch.entries)


class _BatchSizer:
    """Marginal-size meter for one forming batch (DESIGN.md §18).

    Measures each candidate payload's pickled size *in the context of
    the batch being formed*: one shared pickler keeps its memo across
    items, so an object an admitted sibling already ships (a common
    package AST, a reference theory) costs a back-reference, not a
    second serialization -- exactly the sharing the real batch blob
    gets.  The first item of a batch therefore reports its full solo
    size while followers report their true marginal cost, which is what
    the admission rule compares against the per-item byte budget.

    ``measure`` returns None for a payload that cannot be pickled (the
    item is shipped solo so the submission path's loud failure behaviour
    is preserved) and resets the meter, whose memo the failed dump may
    have corrupted.
    """

    __slots__ = ("_buf", "_pickler")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self._buf = io.BytesIO()
        self._pickler = pickle.Pickler(self._buf,
                                       protocol=pickle.HIGHEST_PROTOCOL)

    @property
    def total(self) -> int:
        return self._buf.tell()

    def measure(self, payload) -> Optional[int]:
        before = self._buf.tell()
        try:
            self._pickler.dump(payload)
        except Exception:   # noqa: BLE001 - unpicklable payloads ship solo
            self.reset()
            return None
        return self._buf.tell() - before


def _batch(obligations, members: tuple):
    """The :class:`~repro.exec.payload.BatchPayload` of a unit."""
    return make_batch([(i, obligations[i].payload, obligations[i].label,
                        obligations[i].cache_key) for i in members])


class _PoolTransport:
    """Dispatch units over a local ``ProcessPoolExecutor``.

    Every unit goes straight to the pool (no in-flight cap), so workers
    never idle waiting on a parent round trip.  A dead worker breaks the
    whole pool: everything in flight is reported lost and the pool is
    respawned.  Owns the respawn budget (``POOL_SPAWN_ATTEMPTS``, via
    :meth:`ObligationScheduler._spawn_pool`), the ``BARREN_CRASH_LIMIT``
    on pools dying with nothing in flight, and the parent-side fallback
    deadline behind the worker's ``SIGALRM``.
    """

    def __init__(self, sched: "ObligationScheduler", obligations):
        self._sched = sched
        self._obligations = obligations
        self._pool = sched._spawn_pool()
        #: Future -> (members, abandon-at on the perf_counter clock)
        self._in_flight: Dict[object, tuple] = {}
        self._lost: List[tuple] = []    # events of a submit-time break
        self._barren = 0
        self._abandoned = False
        # A worker that ignores its alarm (or a timeout with no SIGALRM
        # support) is abandoned once this much slack has passed.
        timeout = sched.timeout_seconds
        self._fallback = float("inf") if timeout is None \
            else timeout * 1.5 + sched.TIMEOUT_FALLBACK_SLACK

    @property
    def busy(self) -> bool:
        return bool(self._in_flight)

    def submit(self, members: tuple) -> bool:
        # A solo unit ships as a batch of one: same worker path, one
        # result tuple per member either way.
        try:
            future = self._pool.submit(
                _batch_worker, _batch(self._obligations, members),
                self._sched.retry_policy, self._sched.timeout_seconds)
        except BrokenExecutor as exc:
            self._lost += self._recover(exc)
            return False
        # Worker-side SIGALRM bounds each item, so a unit's worst
        # legitimate case is the sum of its members' budgets.
        self._in_flight[future] = (members, time.perf_counter()
                                   + self._fallback * len(members))
        return True

    def poll(self) -> List[tuple]:
        if self._lost or not self._in_flight:
            lost, self._lost = self._lost, []
            return lost
        soonest = min(deadline for _, deadline in self._in_flight.values())
        wait_for = None if soonest == float("inf") \
            else max(0.0, soonest - time.perf_counter())
        done, _ = _fut_wait(set(self._in_flight), timeout=wait_for,
                            return_when=FIRST_COMPLETED)
        now = time.perf_counter()
        events: List[tuple] = []
        broken = None
        for future, (members, deadline) in list(self._in_flight.items()):
            if future in done:
                try:
                    raw = future.result()
                except BrokenExecutor as exc:
                    # Worker death poisons every in-flight future; this
                    # one stays in flight so _recover reports it lost.
                    broken = exc
                    continue
                except Exception as exc:   # noqa: BLE001 - unpicklable payload/result
                    results = tuple(
                        (i, ERRORED, f"{type(exc).__name__}: {exc}", 0.0, 1,
                         (), exc) for i in members)
                else:
                    self._barren = 0
                    results = raw
                del self._in_flight[future]
                events.append(("done", results, ("",) * len(results)))
            elif deadline <= now:
                # The worker ignored its alarm or died silently: abandon
                # it.  The parent cannot retrieve partial results from an
                # unresponsive worker, so every member times out.
                self._abandoned = True
                del self._in_flight[future]
                events.append(("expired", members))
        if broken is not None:
            events += self._recover(broken)
        return events

    def close(self) -> None:
        if self._abandoned:
            self._sched.telemetry.record(
                ev.WORKER_ABANDONED, "exec", "backend:process",
                detail="unresponsive worker process abandoned at pool "
                       "shutdown")
        # Wait unless an abandoned worker would block shutdown forever.
        self._pool.shutdown(wait=not self._abandoned, cancel_futures=True)

    def _recover(self, cause: BaseException) -> List[tuple]:
        """The pool broke: respawn it; every unit in flight is lost."""
        if self._in_flight:
            self._barren = 0
        else:
            self._barren += 1
            if self._barren >= self._sched.BARREN_CRASH_LIMIT:
                raise BackendUnusableError(
                    "process", f"worker pool keeps dying with nothing in "
                               f"flight ({cause})")
        reason = f"worker died ({type(cause).__name__})"
        lost = [("lost", members, reason)
                for members, _ in self._in_flight.values()]
        self._in_flight.clear()
        try:
            self._pool.shutdown(wait=False, cancel_futures=True)
        except Exception:   # noqa: BLE001 - broken pools may misbehave
            pass
        self._pool = self._sched._spawn_pool()
        return lost


class _SocketTransport:
    """Dispatch units as leases over a
    :class:`~repro.exec.remote.RemoteCoordinator` (DESIGN.md §16).

    Owns the ``jobs`` cap on leases (dispatch units) in flight, the
    lease timeout, the workers' join grace
    (``REMOTE_WORKER_GRACE``), steering a blamed obligation's re-run away
    from the host that lost it, host-quarantine telemetry, and each
    result's ``worker=… served=…`` detail.  A lost connection is reported
    for exactly that worker's leases; other workers keep going.
    """

    def __init__(self, sched: "ObligationScheduler", obligations,
                 remaining: Sequence[int]):
        from .remote.coordinator import RemoteCoordinator

        self._sched = sched
        self._obligations = obligations
        config = sched.config
        # The shared cache tier: workers ask the coordinator for a key
        # before computing; the lookup runs against this scheduler's own
        # cache, re-encoded to the obligation's wire form.
        by_key: Dict[str, Obligation] = {}
        for i in remaining:
            ob = obligations[i]
            if ob.cache_key is not None and ob.payload is not None:
                by_key.setdefault(ob.cache_key, ob)

        def cache_lookup(key):
            ob = by_key.get(key)
            if ob is None:
                return None
            hit, value = sched.cache.get(key, decode=ob.decode)
            if not hit:
                return None
            try:
                return ob.encode(value) if ob.encode is not None \
                    else ob.payload.encode_result(value)
            except Exception:   # noqa: BLE001 - a cache miss, not a fault
                return None

        # Explicit lease_timeout_seconds wins; otherwise a worker's
        # REMOTE_PER_WORKER_INFLIGHT leases, each bounded worker-side by
        # SIGALRM, bound it; with neither, leases never expire.
        lease_timeout = config.lease_timeout_seconds
        if lease_timeout is None and sched.timeout_seconds is not None:
            lease_timeout = (sched.REMOTE_PER_WORKER_INFLIGHT
                             * sched.timeout_seconds * 1.5
                             + sched.TIMEOUT_FALLBACK_SLACK)
        self._coordinator = RemoteCoordinator(
            listen=config.remote_listen, dial=config.remote_workers,
            cache_lookup=(cache_lookup if config.remote_shared_cache
                          and sched.cache is not None else None),
            lease_timeout=lease_timeout,
            per_worker=sched.REMOTE_PER_WORKER_INFLIGHT)
        try:
            self._coordinator.start()
        except OSError as exc:
            raise BackendUnusableError(
                "remote", f"cannot start coordinator: {exc}")
        self._in_flight: Dict[int, tuple] = {}   # index -> its unit
        self._delivered: Dict[tuple, dict] = {}  # in-flight unit -> results
        self._blamed_on: Dict[int, str] = {}     # index -> host that lost it
        if not self._coordinator.wait_for_workers(
                1, sched.REMOTE_WORKER_GRACE):
            self._coordinator.stop()
            raise BackendUnusableError(
                "remote", f"no workers joined within "
                          f"{sched.REMOTE_WORKER_GRACE}s")

    @property
    def busy(self) -> bool:
        return bool(self._in_flight)

    def submit(self, members: tuple) -> bool:
        if len(self._delivered) >= self._sched.jobs:
            return False
        obligations, sched = self._obligations, self._sched
        avoid = {self._blamed_on[i] for i in members if i in self._blamed_on}
        if len(members) == 1:
            ob = obligations[members[0]]
            name = self._coordinator.lease(
                members[0], ob.payload, sched.retry_policy,
                sched.timeout_seconds, ob.label, ob.cache_key, avoid=avoid)
        else:
            name = self._coordinator.lease_batch(
                members, _batch(obligations, members), sched.retry_policy,
                sched.timeout_seconds, avoid=avoid)
        if name is None:
            return False
        for i in members:
            self._in_flight[i] = members
        self._delivered[members] = {}
        return True

    def poll(self) -> List[tuple]:
        coordinator = self._coordinator
        if not self._in_flight and coordinator.live_workers() == 0:
            # Pending work, no workers left (all lost or quarantined):
            # grant joiners one grace period.
            grace = self._sched.REMOTE_WORKER_GRACE
            if not coordinator.wait_for_workers(1, grace):
                raise BackendUnusableError(
                    "remote", f"every worker was lost or quarantined and "
                              f"no replacement joined within {grace}s")
            return []
        events: List[tuple] = []
        event = coordinator.poll(timeout=0.25)
        while event is not None:
            self._translate(event, events)
            event = coordinator.poll(timeout=0)
        return events

    def _translate(self, event: tuple, events: List[tuple]) -> None:
        if event[0] == "result":
            _, index, result, name, served = event
            unit = self._in_flight.pop(index, None)
            if unit is None:
                return   # stale: already blamed and requeued
            delivered = self._delivered[unit]
            delivered[index] = (result, f"worker={name} served={served}")
            if len(delivered) == len(unit):
                del self._delivered[unit]
                events.append(("done",
                               tuple(delivered[i][0] for i in unit),
                               tuple(delivered[i][1] for i in unit)))
        elif event[0] == "lost":
            # A lease's results arrive in one message, so a lost lease
            # never has delivered members: the unit is lost whole.
            _, name, indices, reason = event
            units: Dict[tuple, List[int]] = {}
            for index in indices:
                unit = self._in_flight.pop(index, None)
                if unit is not None:
                    self._blamed_on[index] = name
                    units.setdefault(unit, []).append(index)
            for unit, members in units.items():
                self._delivered.pop(unit, None)
                events.append(("lost", tuple(members),
                               f"worker {name} lost ({reason})"))
        elif event[0] == "quarantined":
            _, name, reason = event
            self._sched.telemetry.record(ev.QUARANTINED, "exec",
                                         f"worker:{name}", detail=reason)
        # "joined" needs no action: capacity is re-checked on submit.

    def close(self) -> None:
        self._coordinator.stop()


class ObligationScheduler:
    #: (Re)spawn attempts granted to the process pool before the backend
    #: is declared unusable.
    POOL_SPAWN_ATTEMPTS = 2
    #: Consecutive pool breaks with *nothing in flight* (workers dying
    #: before executing anything) after which the backend is unusable.
    BARREN_CRASH_LIMIT = 2
    #: Parent-side slack (seconds) added on top of the per-obligation
    #: timeout before an unresponsive worker is abandoned.
    TIMEOUT_FALLBACK_SLACK = 5.0
    #: Seconds the remote backend waits for at least one worker to join
    #: (at start-up, and again after losing every worker mid-run) before
    #: declaring the backend unusable.  Tests shrink this.
    REMOTE_WORKER_GRACE = 10.0
    #: Leases a single remote worker may hold at once.  2 keeps one
    #: obligation queued behind the one executing, so the worker never
    #: idles waiting on the coordinator's dispatch latency.
    REMOTE_PER_WORKER_INFLIGHT = 2

    def __init__(self, config: "ExecConfig"):
        """``config`` is an :class:`~repro.exec.config.ExecConfig`, which
        validates every setting; the scheduler resolves the defaults
        (``jobs=None`` → CPU count, ``cache=None`` → the process-wide
        cache, ``cache=False`` → no cache, ``telemetry=None`` → the
        process-wide log)."""
        self.config = config
        self.jobs = config.jobs or os.cpu_count() or 1
        self.backend = config.backend
        self.cache = config.resolved_cache()
        if self.cache is not None and config.cache_memory_entries is not None:
            self.cache.set_memory_limit(config.cache_memory_entries)
        self.telemetry = config.resolved_telemetry()
        self.timeout_seconds = config.timeout_seconds
        self.retry_policy = config.retries
        self.on_error = config.on_error
        self.batch_size = config.batch_size
        self.batch_bytes_cap = config.batch_bytes_cap

    # -- public -------------------------------------------------------------

    def run(self, obligations: Sequence[Obligation],
            stop_on: Optional[Callable[[ObligationOutcome], bool]] = None
            ) -> List[ObligationOutcome]:
        """Execute all obligations; results in input order.

        ``stop_on(outcome)`` returning True stops scheduling further
        obligations (remaining ones come back ``skipped``) -- the serial
        path's early exit, e.g. a differential check stopping at the first
        counterexample.

        A pass that finds its backend unusable raises
        :class:`BackendUnusableError` (``on_backend_failure='raise'``) or
        falls back along ``remote → process → serial``
        (``on_backend_failure='degrade'``): outcomes already reached stay
        final, and only the unfinished obligations re-run on the fallback
        backend.
        """
        obligations = list(obligations)
        outcomes: List[Optional[ObligationOutcome]] = [None] * len(obligations)
        for ob in obligations:
            self.telemetry.record(ev.SUBMITTED, ob.kind, ob.label)
        backend = self.backend
        # The remote backend is exempt from the small-batch serial
        # shortcut: even one obligation ships to a worker host (that is
        # the point of a farm -- the parent may be a thin coordinator).
        if backend == "process" \
                and (self.jobs == 1 or len(obligations) <= 1):
            backend = "serial"
        while True:
            try:
                if backend == "serial":
                    self._run_serial(obligations, stop_on, outcomes)
                else:
                    self._run_units(obligations, stop_on, outcomes, backend)
                break
            except BackendUnusableError as exc:
                fallback = DEGRADE_CHAIN.get(backend)
                if self.config.on_backend_failure != "degrade" \
                        or fallback is None:
                    raise
                self.telemetry.record(ev.DEGRADED, "exec",
                                      f"{backend}->{fallback}",
                                      detail=exc.reason)
                backend = fallback
        for i, ob in enumerate(obligations):
            if outcomes[i] is None:
                self.telemetry.record(ev.SKIPPED, ob.kind, ob.label)
                outcomes[i] = ObligationOutcome(obligation=ob, status=SKIPPED)
        return outcomes  # type: ignore[return-value]

    # -- serial path --------------------------------------------------------

    def _run_serial(self, obligations, stop_on, outcomes) -> None:
        for i, ob in enumerate(obligations):
            if outcomes[i] is not None:
                continue
            outcome = self._execute(ob)
            if outcome.status == ERRORED and self.on_error == "raise":
                raise outcome._exception    # type: ignore[attr-defined]
            outcomes[i] = outcome
            if stop_on is not None and stop_on(outcome):
                return    # the unfilled tail is skipped by run()

    # -- the dispatch core (process and remote) -----------------------------

    def _spawn_pool(self) -> ProcessPoolExecutor:
        last: Optional[BaseException] = None
        for _ in range(self.POOL_SPAWN_ATTEMPTS):
            try:
                return ProcessPoolExecutor(max_workers=self.jobs)
            except Exception as exc:   # noqa: BLE001 - backend boundary
                last = exc
        raise BackendUnusableError(
            "process", f"cannot (re)spawn worker pool: {last}")

    def _form_units(self, obligations,
                    indices: Sequence[int]) -> List[tuple]:
        """Cut ``indices`` into dispatch units before anything ships
        (DESIGN.md §18), from the input order and the configuration
        alone -- never from live state -- so a run's units are the same
        every time.

        An obligation's *level* is its position in its group's chain (0
        when ungrouped).  Each level, in input order, is cut into units of
        at most ``min(batch_size, ceil(n / jobs))`` members, ``n`` being
        the level's size -- the width a ready-queue fill picks when that
        level is what is ready.  A unit thus holds at most one member of
        a group and waits only on units of the level before, so the unit
        order never deadlocks.  A payload whose marginal pickled size
        exceeds ``batch_bytes_cap // batch_size`` closes the forming unit
        and opens the next; a unit whose measured size reaches
        ``batch_bytes_cap`` is closed.  Payloadless and unpicklable
        obligations are units of their own."""
        levels: Dict[int, List[int]] = {}    # filled in level order
        depth: Dict[str, int] = {}
        for i in indices:
            group = obligations[i].group
            level = 0 if group is None else depth.get(group, 0)
            if group is not None:
                depth[group] = level + 1
            levels.setdefault(level, []).append(i)
        join_cap = max(1, self.batch_bytes_cap // self.batch_size)
        sizer = _BatchSizer()
        units: List[tuple] = []
        pending: List[int] = []

        def close() -> None:
            if pending:
                units.append(tuple(pending))
                pending.clear()
            sizer.reset()

        for members in levels.values():
            chunk = min(self.batch_size, -(-len(members) // self.jobs))
            for i in members:
                payload = obligations[i].payload
                if payload is not None and chunk > 1:
                    if len(pending) >= chunk \
                            or sizer.total >= self.batch_bytes_cap:
                        close()
                    size = sizer.measure(payload)
                    if size is not None and pending and size > join_cap:
                        # Too big to join: re-open a fresh unit, where its
                        # measured size includes the objects its former
                        # unit-mates would have shared.
                        close()
                        size = sizer.measure(payload)
                    if size is not None:
                        pending.append(i)
                        continue
                close()
                units.append((i,))
            close()
        return units

    def _run_units(self, obligations, stop_on, outcomes,
                   backend: str) -> None:
        """The one dispatch loop of the process and remote backends.

        Cache hits settle in the parent first; the misses are cut into
        units up front (:meth:`_form_units`).  A unit is dispatched once
        every member's group predecessor has a final outcome.  At
        dispatch, payloadless obligations run inline (:meth:`_execute`)
        and the rest leave as one unit.  A unit the transport refuses is
        requeued, unblamed.

        A lost unit blames each member once; blamed members re-run solo,
        one at a time with nothing else in flight, so the second verdict
        assigns guilt precisely: a member blamed ``QUARANTINE_AFTER``
        times is quarantined ``crashed``, and innocent unit-mates
        complete their solo run unblamed.  Total losses are therefore
        bounded by ``QUARANTINE_AFTER * len(obligations)``.
        """
        # Cache hits settle first, in input order: a hit never ships, and
        # only the misses are chained and cut into units.
        pending: List[int] = []
        for i, ob in enumerate(obligations):
            if outcomes[i] is not None:
                continue
            cached = None if ob.payload is None else self._cached(ob)
            if cached is None:
                pending.append(i)
                continue
            outcomes[i] = cached
            if stop_on is not None and stop_on(cached):
                break    # later obligations are skipped by run()
        if not pending:
            return
        transport = _PoolTransport(self, obligations) \
            if backend == "process" \
            else _SocketTransport(self, obligations, pending)
        try:
            self._dispatch_loop(transport, obligations, pending, stop_on,
                                outcomes)
        finally:
            transport.close()

    def _dispatch_loop(self, transport, obligations, pending, stop_on,
                       outcomes) -> None:
        successor: Dict[int, int] = {}       # next in the same group
        last_in_group: Dict[str, int] = {}
        for i in pending:
            group = obligations[i].group
            if group is not None:
                if group in last_in_group:
                    successor[last_in_group[group]] = i
                last_in_group[group] = i
        units = self._form_units(obligations, pending)
        unit_of = {i: u for u, members in enumerate(units) for i in members}
        waiting = [0] * len(units)   # members with unfinished predecessors
        for j in successor.values():
            waiting[unit_of[j]] += 1
        ready = deque(members for u, members in enumerate(units)
                      if not waiting[u])
        suspects: deque = deque()            # blamed, re-run solo
        blames: Dict[int, int] = {}
        sent_at: Dict[int, float] = {}
        finished = 0
        stopped = False
        raise_exc = None

        def finalize(index: int, outcome: ObligationOutcome) -> None:
            nonlocal finished, stopped, raise_exc
            outcomes[index] = outcome
            finished += 1
            if index in successor:
                u = unit_of[successor[index]]
                waiting[u] -= 1
                if not waiting[u]:
                    ready.append(units[u])
            if outcome.status == ERRORED and self.on_error == "raise" \
                    and raise_exc is None:
                raise_exc = getattr(
                    outcome, "_exception",
                    RuntimeError(outcome.error or "obligation errored"))
            if stop_on is not None and not stopped and stop_on(outcome):
                stopped = True

        def dispatch(members: tuple) -> tuple:
            """Run payloadless members inline, ship the rest as one unit;
            returns the members that did not leave."""
            ship = []
            for i in members:
                if obligations[i].payload is None:
                    finalize(i, self._execute(obligations[i]))
                else:
                    ship.append(i)
            if not ship or stopped or raise_exc is not None:
                return ()
            ship = tuple(ship)
            if not transport.submit(ship):
                return ship
            now = time.perf_counter()
            for i in ship:
                sent_at[i] = now
                self.telemetry.record(ev.STARTED, obligations[i].kind,
                                      obligations[i].label)
            return ()

        while finished < len(pending):
            blocked = False
            while not stopped and raise_exc is None:
                if suspects:
                    if transport.busy:
                        break
                    unsent = dispatch((suspects.popleft(),))
                    if unsent:
                        suspects.appendleft(unsent[0])
                        blocked = True
                        break
                    continue
                if not ready:
                    break
                unsent = dispatch(ready.popleft())
                if unsent:
                    ready.appendleft(unsent)
                    blocked = True
                    break
            if finished >= len(pending) or raise_exc is not None:
                break
            if not transport.busy and not blocked:
                break   # stopped: the tail is skipped by run()
            for event in transport.poll():
                if event[0] == "done":
                    _, results, details = event
                    busy = sum(result[3] for result in results)
                    for result, detail in zip(results, details):
                        i = result[0]
                        finalize(i, self._decode(
                            obligations[i], result, detail,
                            blames.get(i, 0)))
                    self.telemetry.record(
                        ev.DISPATCHED, "exec",
                        f"dispatch[{len(results)}]",
                        wall=max(0.0, time.perf_counter()
                                 - sent_at[results[0][0]] - busy),
                        detail=f"items={len(results)}")
                elif event[0] == "expired":
                    for i in event[1]:
                        ob = obligations[i]
                        wall = self.timeout_seconds or 0.0
                        self.telemetry.record(ev.TIMED_OUT, ob.kind,
                                              ob.label, wall=wall)
                        finalize(i, ObligationOutcome(
                            obligation=ob, status=TIMED_OUT,
                            wall_seconds=wall,
                            error=f"no result within "
                                  f"{self.timeout_seconds}s (worker "
                                  f"unresponsive)"))
                else:
                    _, members, reason = event
                    for i in members:
                        ob = obligations[i]
                        blames[i] = blame = blames.get(i, 0) + 1
                        self.telemetry.record(
                            ev.CRASHED, ob.kind, ob.label,
                            detail=f"{reason}; blame "
                                   f"{blame}/{QUARANTINE_AFTER}")
                        if blame < QUARANTINE_AFTER:
                            suspects.append(i)
                            continue
                        self.telemetry.record(
                            ev.QUARANTINED, ob.kind, ob.label,
                            detail=f"lost its worker {blame} times")
                        finalize(i, ObligationOutcome(
                            obligation=ob, status=CRASHED,
                            attempts=blame,
                            error=f"obligation lost its worker "
                                  f"{blame} times ({reason}); "
                                  f"quarantined"))
        if raise_exc is not None:
            raise raise_exc

    def _cached(self, ob: Obligation) -> Optional[ObligationOutcome]:
        """The ``cached`` outcome of ``ob`` on a cache hit, else None."""
        if ob.cache_key is None or self.cache is None:
            return None
        started = time.perf_counter()
        hit, value = self.cache.get(ob.cache_key, decode=ob.decode)
        if not hit:
            return None
        wall = time.perf_counter() - started
        self.telemetry.record(ev.CACHED, ob.kind, ob.label, wall=wall)
        return ObligationOutcome(obligation=ob, status=CACHED, value=value,
                                 wall_seconds=wall)

    def _decode(self, ob: Obligation, result: tuple, detail: str,
                blames: int) -> ObligationOutcome:
        """One worker result tuple (see :func:`_process_worker`) as an
        outcome, with its telemetry and cache fill."""
        _, status, wire, wall, attempts, retry_errors, exc_obj = result
        for message in retry_errors:
            self.telemetry.record(ev.RETRIED, ob.kind, ob.label,
                                  detail=message)
        if status == OK:
            try:
                value = ob.decode(wire) if ob.decode is not None \
                    else ob.payload.decode_result(wire)
            except Exception as exc:   # noqa: BLE001 - bad wire data
                status, wire, exc_obj = \
                    ERRORED, f"undecodable result: {exc}", exc
        if status == OK:
            keyed = ob.cache_key is not None and self.cache is not None
            self.telemetry.record(
                ev.FINISHED, ob.kind, ob.label, wall=wall,
                detail=" ".join(filter(None, (detail,
                                              "keyed" if keyed else ""))))
            if attempts > 1 or blames:
                self.telemetry.record(
                    ev.RETRIED_OK, ob.kind, ob.label,
                    detail=f"succeeded on attempt {attempts}"
                    + (", after a lost worker" if blames else ""))
            if keyed:
                self.cache.put(ob.cache_key, value, encode=ob.encode)
            return ObligationOutcome(obligation=ob, status=OK, value=value,
                                     wall_seconds=wall, attempts=attempts)
        if status == TIMED_OUT:
            self.telemetry.record(ev.TIMED_OUT, ob.kind, ob.label,
                                  wall=wall)
            return ObligationOutcome(
                obligation=ob, status=TIMED_OUT, wall_seconds=wall,
                attempts=attempts,
                error=f"hard timeout after {self.timeout_seconds}s")
        self.telemetry.record(ev.ERRORED, ob.kind, ob.label, wall=wall,
                              detail=str(wire))
        outcome = ObligationOutcome(obligation=ob, status=ERRORED,
                                    wall_seconds=wall, attempts=attempts,
                                    error=str(wire))
        outcome._exception = exc_obj if exc_obj is not None \
            else RuntimeError(str(wire))   # type: ignore[attr-defined]
        return outcome

    # -- one obligation -----------------------------------------------------

    def _execute(self, ob: Obligation) -> ObligationOutcome:
        cached = self._cached(ob)
        if cached is not None:
            return cached
        keyed = ob.cache_key is not None and self.cache is not None
        self.telemetry.record(ev.STARTED, ob.kind, ob.label)
        started = time.perf_counter()
        value, attempts, exc = _retrying(
            ob.thunk, self.retry_policy, ob.label,
            lambda exc: self.telemetry.record(ev.RETRIED, ob.kind,
                                              ob.label, detail=str(exc)))
        if exc is not None:
            wall = time.perf_counter() - started
            self.telemetry.record(ev.ERRORED, ob.kind, ob.label,
                                  wall=wall, detail=str(exc))
            outcome = ObligationOutcome(
                obligation=ob, status=ERRORED, wall_seconds=wall,
                attempts=attempts, error=f"{type(exc).__name__}: {exc}")
            outcome._exception = exc   # type: ignore[attr-defined]
            return outcome
        wall = time.perf_counter() - started
        self.telemetry.record(ev.FINISHED, ob.kind, ob.label, wall=wall,
                              detail="keyed" if keyed else "")
        if attempts > 1:
            self.telemetry.record(ev.RETRIED_OK, ob.kind, ob.label,
                                  detail=f"succeeded on attempt {attempts}")
        if keyed:
            self.cache.put(ob.cache_key, value, encode=ob.encode)
        return ObligationOutcome(obligation=ob, status=OK, value=value,
                                 wall_seconds=wall, attempts=attempts)
