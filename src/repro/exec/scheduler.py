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
results, and runs the single blame → solo re-run → quarantine sequence
of DESIGN.md §12.  Every result, inline or shipped, settles through one
method (:meth:`ObligationScheduler._settle`) that builds the outcome, its
telemetry and its cache fill.  Below the loop sits a narrow transport --
submit a unit, poll for events, close -- with two implementations:
:class:`_PoolTransport` (a local process pool) and
:class:`~repro.exec.remote.RemoteCoordinator` (the farm's sockets).

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

#: Upper bound (bytes) on one dispatch unit's estimated pickled size; a
#: payload whose marginal size exceeds ``BATCH_BYTES_CAP // batch_size``
#: ships solo (DESIGN.md §18).
BATCH_BYTES_CAP = 4 * 1024 * 1024


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

    Returns ``(index, status, value, wall, attempts, retry_errors,
    exception-or-None)`` -- always plain picklable data; exceptions are
    only shipped as objects when they themselves pickle.  ``status`` is
    ``'ok'`` (``value`` is the wire-encoded result), ``'timed_out'`` (the
    hard per-obligation deadline fired) or ``'errored'``; for those two,
    ``value`` is the outcome's error message.  The timeout budget covers
    the whole obligation, retries *and their backoff sleeps* included.
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
        return (index, "timed_out", f"hard timeout after {timeout_seconds}s",
                time.perf_counter() - started, len(retry_errors) + 1,
                tuple(retry_errors), None)
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
    return (index, "errored", _describe(exc), wall, attempts,
            tuple(retry_errors), exc_obj)


def _describe(exc: BaseException) -> str:
    """The ``errored`` message of an exception, on every backend."""
    return f"{type(exc).__name__}: {exc}"


def _unit_errored(members: tuple, message: str, exc=None) -> tuple:
    """Result tuples (see :func:`_process_worker`) marking every member
    of a unit ``errored`` -- for a unit whose results never arrived
    intact."""
    return tuple((i, ERRORED, message, 0.0, 1, (), exc) for i in members)


def _batch_worker(entries, retry_policy: RetryPolicy,
                  timeout_seconds: Optional[float]) -> tuple:
    """Execute one dispatch unit in a pool or farm worker: each entry
    runs through :func:`_process_worker`, which installs and clears its
    own alarm, so per-item timeout, retry, and jitter accounting are
    identical to a solo dispatch.  Returns one result tuple per entry,
    in entry order."""
    return tuple(
        _process_worker(index, payload, retry_policy, timeout_seconds,
                        token)
        for index, payload, token in entries)


def _decoded(ob: Obligation, result: tuple) -> tuple:
    """A worker result tuple with its wire value decoded by ``ob``'s
    codec; undecodable wire data turns the result ``errored``."""
    if result[1] != OK or ob.decode is None:
        return result
    try:
        return result[:2] + (ob.decode(result[2]),) + result[3:]
    except Exception as exc:   # noqa: BLE001 - bad wire data
        return result[:1] + (ERRORED, f"undecodable result: {exc}") \
            + result[3:6] + (exc,)


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


class _PoolTransport:
    """Dispatch units over a local ``ProcessPoolExecutor``.

    Every unit goes straight to the pool (no in-flight cap), so workers
    never idle waiting on a parent round trip.  A dead worker breaks the
    whole pool: everything in flight is reported lost and the pool is
    respawned (:meth:`ObligationScheduler._spawn_pool`).  Owns the
    ``BARREN_CRASH_LIMIT`` on pools dying with nothing in flight, and the
    parent-side fallback deadline behind the worker's ``SIGALRM``.
    """

    def __init__(self, sched: "ObligationScheduler"):
        self._sched = sched
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

    def submit(self, members: tuple, job: tuple) -> bool:
        try:
            future = self._pool.submit(_batch_worker, *job)
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
                    results = _unit_errored(members, _describe(exc), exc)
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


class ObligationScheduler:
    #: Consecutive pool breaks with *nothing in flight* (workers dying
    #: before executing anything) after which the backend is unusable.
    BARREN_CRASH_LIMIT = 2
    #: Parent-side slack (seconds) added on top of the per-obligation
    #: timeout before an unresponsive worker is abandoned.
    TIMEOUT_FALLBACK_SLACK = 5.0

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
        self.telemetry = config.resolved_telemetry()
        self.timeout_seconds = config.timeout_seconds
        self.retry_policy = config.retries
        self.on_error = config.on_error
        self.batch_size = config.batch_size

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
        # The constructor starts no process (workers start at submit), so
        # a failure here is not transient: one attempt.
        try:
            return ProcessPoolExecutor(max_workers=self.jobs)
        except Exception as exc:   # noqa: BLE001 - backend boundary
            raise BackendUnusableError(
                "process", f"cannot (re)spawn worker pool: {exc}")

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
        exceeds ``BATCH_BYTES_CAP // batch_size`` closes the forming unit
        and opens the next; a unit whose measured size reaches
        ``BATCH_BYTES_CAP`` is closed.  Payloadless and unpicklable
        obligations are units of their own."""
        levels: Dict[int, List[int]] = {}    # filled in level order
        depth: Dict[str, int] = {}
        for i in indices:
            group = obligations[i].group
            level = 0 if group is None else depth.get(group, 0)
            if group is not None:
                depth[group] = level + 1
            levels.setdefault(level, []).append(i)
        join_cap = max(1, BATCH_BYTES_CAP // self.batch_size)
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
                            or sizer.total >= BATCH_BYTES_CAP:
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
        if backend == "process":
            transport = _PoolTransport(self)
        else:
            from .remote.coordinator import RemoteCoordinator
            transport = RemoteCoordinator(
                self.config.remote_listen, self.config.remote_workers,
                jobs=self.jobs, timeout=self.timeout_seconds,
                slack=self.TIMEOUT_FALLBACK_SLACK, telemetry=self.telemetry)
            try:
                transport.start()
            except OSError as exc:
                raise BackendUnusableError(
                    "remote", f"cannot start coordinator: {exc}")
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
        suspects: deque = deque()    # blamed members as solo units
        solo = False                 # the last unit shipped is a suspect
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
                raise_exc = outcome._exception   # set by _settle
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
            # A unit travels as its ``(index, payload, token)`` entries
            # (the token feeds the retry jitter) with the retry policy and
            # timeout: the arguments of the worker's ``_batch_worker``.
            ship = tuple(ship)
            job = (tuple((i, obligations[i].payload, obligations[i].label)
                         for i in ship),
                   self.retry_policy, self.timeout_seconds)
            if not transport.submit(ship, job):
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
                # Suspects go first, one at a time with nothing in flight,
                # and nothing ships beside a suspect in flight.
                queue = suspects or ready
                if not queue or ((suspects or solo) and transport.busy):
                    break
                solo = queue is suspects
                unsent = dispatch(queue.popleft())
                if unsent:
                    queue.appendleft(unsent)
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
                        finalize(i, self._settle(
                            obligations[i], _decoded(obligations[i], result),
                            detail, blames.get(i, 0)))
                    self.telemetry.record(
                        ev.DISPATCHED, "exec",
                        f"dispatch[{len(results)}]",
                        wall=max(0.0, time.perf_counter()
                                 - sent_at[results[0][0]] - busy),
                        detail=f"items={len(results)}")
                elif event[0] == "expired":
                    message = f"no result within {self.timeout_seconds}s " \
                              f"(worker unresponsive)"
                    for i in event[1]:
                        finalize(i, self._settle(obligations[i], (
                            i, TIMED_OUT, message,
                            self.timeout_seconds or 0.0, 0, (), None)))
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
                            suspects.append((i,))
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

    def _settle(self, ob: Obligation, result: tuple, detail: str = "",
                blames: int = 0) -> ObligationOutcome:
        """One result tuple in the shape :func:`_process_worker` returns,
        its value decoded, as an outcome -- with its telemetry and cache
        fill.  Inline and shipped obligations settle here alike."""
        _, status, value, wall, attempts, retry_errors, exc = result
        for message in retry_errors:
            self.telemetry.record(ev.RETRIED, ob.kind, ob.label,
                                  detail=message)
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
        # Timed out or errored: ``value`` is the error message.
        timed_out = status == TIMED_OUT
        self.telemetry.record(ev.TIMED_OUT if timed_out else ev.ERRORED,
                              ob.kind, ob.label, wall=wall,
                              detail="" if timed_out else value)
        outcome = ObligationOutcome(obligation=ob, status=status,
                                    wall_seconds=wall, attempts=attempts,
                                    error=value)
        if not timed_out:
            outcome._exception = exc if exc is not None \
                else RuntimeError(value)   # type: ignore[attr-defined]
        return outcome

    # -- one obligation -----------------------------------------------------

    def _execute(self, ob: Obligation) -> ObligationOutcome:
        """Run ``ob``'s thunk inline (serial, or a payloadless obligation
        on a parallel backend), retried live, then settle it."""
        cached = self._cached(ob)
        if cached is not None:
            return cached
        self.telemetry.record(ev.STARTED, ob.kind, ob.label)
        started = time.perf_counter()
        value, attempts, exc = _retrying(
            ob.thunk, self.retry_policy, ob.label,
            lambda exc: self.telemetry.record(ev.RETRIED, ob.kind,
                                              ob.label, detail=str(exc)))
        wall = time.perf_counter() - started
        if exc is None:
            return self._settle(ob, (None, OK, value, wall, attempts, (),
                                     None))
        return self._settle(ob, (None, ERRORED, _describe(exc), wall,
                                 attempts, (), exc))

