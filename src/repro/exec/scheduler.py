"""The work-queue scheduler for proof obligations.

``ObligationScheduler.run`` takes a list of :class:`Obligation` and
returns one :class:`ObligationOutcome` per obligation, **in input order**
regardless of completion order.  Two execution backends:

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

The process backend's dispatch loop
(:meth:`ObligationScheduler._run_units`, DESIGN.md §11) settles cache
hits and payloadless obligations in the parent, cuts the work into
dispatch units before anything ships, decodes results, and runs the
single blame → solo re-run → quarantine sequence of DESIGN.md §12.
Every result, inline or shipped, settles through one method
(:meth:`ObligationScheduler._settle`) that builds the outcome, its
telemetry and its cache fill.  Below the loop sits a narrow transport --
submit a unit, poll for events, close -- :class:`_PoolTransport`, over a
local process pool.  The pool is the scheduler's: spawned when the first
unit ships, kept across :meth:`~ObligationScheduler.run` calls, and
reaped by :meth:`~ObligationScheduler.close` (or the end of a ``with``
block).  A pass in which nothing would ship runs inline, as serial does,
and touches no pool.

Obligations are independent: each one's verdict is a function of its
own inputs, so the process backend may run them in any order.  The
cache and telemetry always live in the parent, so both behave
identically across backends.  The per-obligation timeout is a hard
worker-side ``SIGALRM`` bound; a worker that fails to honour it is
abandoned by a parent-side fallback deadline.

Fault tolerance (DESIGN.md §12).  Transient failures are retried under a
:class:`~repro.exec.retry.RetryPolicy`; a thunk that still raises either
propagates (``on_error='raise'``) or is recorded ``errored``
(``on_error='record'``).  Every obligation a lost worker held re-runs
solo; one that loses its worker ``QUARANTINE_AFTER`` times while
running alone is quarantined with a ``crashed`` outcome.  A backend
that cannot make progress raises :class:`BackendUnusableError`
(``on_backend_failure='raise'``) or degrades to ``serial``
(``on_backend_failure='degrade'``).
"""

from __future__ import annotations

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
from .payload import start_worker
from .retry import RetryPolicy

if TYPE_CHECKING:
    from .config import ExecConfig

__all__ = ["ObligationOutcome", "ObligationScheduler", "BACKENDS",
           "BackendUnusableError"]

#: Recognized execution backends, in increasing order of isolation.
BACKENDS = ("serial", "process")

#: Fallback taken by ``on_backend_failure='degrade'`` when a backend is
#: unusable; ``serial`` has no fallback -- it cannot fail to exist.
DEGRADE_CHAIN = {"process": "serial"}

OK = "ok"
CACHED = "cached"
TIMED_OUT = "timed_out"
ERRORED = "errored"
SKIPPED = "skipped"
CRASHED = "crashed"

#: Workers an obligation may lose while running alone before it is
#: quarantined.
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
    """Execute one dispatch unit in a pool worker: each entry
    runs through :func:`_process_worker`, which installs and clears its
    own alarm, so per-item timeout, retry, and jitter accounting are
    identical to a solo dispatch.  Returns ``(stamp, results)``: one
    result tuple per entry, in entry order, and ``stamp = (pid, started,
    finished)``, when this worker began and ended the unit on the
    system-wide monotonic clock, so the parent can tell the unit's wait
    for a free worker from its wire cost."""
    started = time.monotonic()
    results = tuple(
        _process_worker(index, payload, retry_policy, timeout_seconds,
                        token)
        for index, payload, token in entries)
    return (os.getpid(), started, time.monotonic()), results


def _wire_seconds(sent: float, received: float, stamp,
                  free_at: Dict[int, float]) -> float:
    """The dispatch overhead of one unit submitted at ``sent`` whose
    results the parent had at ``received``: the time until its worker
    started it, counted from when that worker finished its previous unit
    if that was later, plus the time from the unit's end to
    ``received``.  So time the unit waited in the pool's queue behind
    another unit is left out; ``free_at`` maps a worker's pid to when it
    finished its last unit.  All times are on the monotonic clock."""
    if stamp is None:       # no worker stamps: the result never arrived
        return max(0.0, received - sent)
    pid, started, finished = stamp
    ready = max(sent, free_at.get(pid, sent))
    free_at[pid] = finished
    return max(0.0, started - ready) + max(0.0, received - finished)


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


class _PoolTransport:
    """Dispatch units over a local ``ProcessPoolExecutor``.

    One transport serves one run; the pool is the scheduler's and
    outlives it (:meth:`ObligationScheduler._worker_pool`).  Every unit
    goes straight to the pool (no in-flight cap), so workers never idle
    waiting on a parent round trip.  A dead worker breaks the whole
    pool: every unit in flight that had not finished is reported lost,
    and the pool is respawned.  A unit of several members that fails as
    a whole is reported ``split``.  Owns the run's ``BARREN_CRASH_LIMIT`` on pools dying
    with nothing in flight, and the parent-side fallback deadline behind
    the worker's ``SIGALRM``.
    """

    def __init__(self, sched: "ObligationScheduler"):
        self._sched = sched
        #: Future -> (members, abandon-at on the perf_counter clock)
        self._in_flight: Dict[object, tuple] = {}
        self._broken: Optional[BaseException] = None   # at submit time
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
            future = self._sched._worker_pool().submit(_batch_worker, *job)
        except BrokenExecutor as exc:
            # The next poll keeps what finished before the break and
            # reports the rest lost.
            self._broken = exc
            return False
        # Worker-side SIGALRM bounds each item, so a unit's worst
        # legitimate case is the sum of its members' budgets.
        self._in_flight[future] = (members, time.perf_counter()
                                   + self._fallback * len(members))
        return True

    def poll(self) -> List[tuple]:
        broken, self._broken = self._broken, None
        if not self._in_flight:
            return [] if broken is None else self._recover(broken)
        soonest = min(deadline for _, deadline in self._in_flight.values())
        wait_for = None if soonest == float("inf") \
            else max(0.0, soonest - time.perf_counter())
        if broken is not None:
            wait_for = 0.0      # keep what is done; the rest is lost
        done, _ = _fut_wait(set(self._in_flight), timeout=wait_for,
                            return_when=FIRST_COMPLETED)
        now = time.perf_counter()
        events: List[tuple] = []
        for future, (members, deadline) in list(self._in_flight.items()):
            if future in done:
                try:
                    stamp, results = future.result()
                except BrokenExecutor as exc:
                    # Worker death poisons every in-flight future; this
                    # one stays in flight so _recover reports it lost.
                    broken = exc
                    continue
                except Exception as exc:   # noqa: BLE001 - unpicklable payload/result
                    if len(members) > 1:
                        # The unit failed as a whole: its members try
                        # alone, so one member's failure is its own.
                        del self._in_flight[future]
                        events.append(("split", members))
                        continue
                    stamp = None
                    results = _unit_errored(members, _describe(exc), exc)
                else:
                    self._barren = 0
                del self._in_flight[future]
                # In submission order, which is each worker's start order.
                events.append(("done", results, stamp))
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
        """End the run.  A healthy, idle pool stays with the scheduler
        for its next run; a pool holding an abandoned worker is let go
        without waiting (waiting would block forever), and one with work
        still in flight (the run raised) is shut down."""
        if self._abandoned:
            self._sched.telemetry.record(
                ev.WORKER_ABANDONED, "exec", "backend:process",
                detail="unresponsive worker process abandoned at pool "
                       "shutdown")
            self._sched._retire_pool(wait=False)
        elif self._in_flight:
            self._sched._retire_pool(wait=True)

    def _recover(self, cause: BaseException) -> List[tuple]:
        """The pool broke: retire it (the next submit spawns a fresh
        one); every unit in flight is lost."""
        reason = f"worker died ({type(cause).__name__})"
        lost = [("lost", members, reason)
                for members, _ in self._in_flight.values()]
        self._in_flight.clear()
        self._sched._retire_pool(wait=False)
        if lost:
            self._barren = 0
        else:
            self._barren += 1
            if self._barren >= self._sched.BARREN_CRASH_LIMIT:
                raise BackendUnusableError(
                    "process", f"worker pool keeps dying with nothing in "
                               f"flight ({cause})")
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
        #: The process backend's worker pool: spawned when the first unit
        #: ships and kept across :meth:`run` calls until :meth:`close`.
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- public -------------------------------------------------------------

    def __enter__(self) -> "ObligationScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down and wait until its workers are
        reaped.  A pool holding an abandoned worker was already let go at
        the end of its run, so this never blocks on one.  A later
        :meth:`run` spawns a fresh pool."""
        self._retire_pool(wait=True)

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
        falls back to ``serial`` (``on_backend_failure='degrade'``):
        outcomes already reached stay final, and only the unfinished
        obligations re-run on the fallback backend.
        """
        obligations = list(obligations)
        outcomes: List[Optional[ObligationOutcome]] = [None] * len(obligations)
        for ob in obligations:
            self.telemetry.record(ev.SUBMITTED, ob.kind, ob.label)
        backend = self.backend
        if self.jobs == 1 or len(obligations) <= 1:
            backend = "serial"
        while True:
            try:
                if backend == "serial":
                    self._run_serial(obligations, range(len(obligations)),
                                     stop_on, outcomes)
                else:
                    self._run_units(obligations, stop_on, outcomes)
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

    def _run_serial(self, obligations, indices, stop_on, outcomes) -> None:
        for i in indices:
            if outcomes[i] is not None:
                continue
            outcome = self._execute(obligations[i])
            if outcome.status == ERRORED and self.on_error == "raise":
                raise outcome._exception    # type: ignore[attr-defined]
            outcomes[i] = outcome
            if stop_on is not None and stop_on(outcome):
                return    # the unfilled tail is skipped by run()

    # -- the dispatch core (process) ----------------------------------------

    def _spawn_pool(self) -> ProcessPoolExecutor:
        # The constructor starts no process (workers start at submit), so
        # a failure here is not transient: one attempt.
        try:
            return ProcessPoolExecutor(max_workers=self.jobs,
                                       initializer=start_worker)
        except Exception as exc:   # noqa: BLE001 - backend boundary
            raise BackendUnusableError(
                "process", f"cannot (re)spawn worker pool: {exc}")

    def _worker_pool(self) -> ProcessPoolExecutor:
        """The live worker pool, spawned on first use."""
        if self._pool is None:
            self._pool = self._spawn_pool()
        return self._pool

    def _retire_pool(self, wait: bool) -> None:
        """Shut the pool down, cancelling what has not started; with
        ``wait``, block until its workers are reaped.  The next unit
        that ships spawns a fresh pool."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.shutdown(wait=wait, cancel_futures=True)
        except Exception:   # noqa: BLE001 - broken pools may misbehave
            pass

    def _form_units(self, indices: Sequence[int]) -> List[tuple]:
        """Cut ``indices`` into dispatch units before anything ships
        (DESIGN.md §18): consecutive runs, in input order, of ``min(
        batch_size, ceil(n / jobs))`` members, ``n`` being the number of
        misses.  Units depend on the input order and the configuration
        alone -- never on live state -- so a run's units are the same
        every time."""
        indices = list(indices)
        width = min(self.batch_size, -(-len(indices) // self.jobs))
        return [tuple(indices[k:k + width])
                for k in range(0, len(indices), width)]

    def _run_units(self, obligations, stop_on, outcomes) -> None:
        """The dispatch loop of the process backend.

        Cache hits settle in the parent first; the misses are cut into
        units up front (:meth:`_form_units`) and every unit is dispatched
        at once.  At dispatch, payloadless obligations run inline
        (:meth:`_execute`) and the rest leave as one unit.  A unit the
        transport refuses is requeued, unblamed.  A unit of several
        members that fails as a whole -- its payloads or its results do
        not pickle -- is split: its members re-run as solo units,
        unblamed, so one member's failure is its own.

        The members of a lost unit become suspects and re-run solo, one
        at a time with nothing else in flight.  Only a solo loss blames
        its obligation: a shared break cannot say which member killed
        the worker, nor whether a member queued behind the others ever
        started.  A member blamed ``QUARANTINE_AFTER`` times is
        quarantined ``crashed``, and innocent unit-mates complete their
        solo run unblamed.  An obligation is lost at most once in a
        shared unit, so total losses are bounded by
        ``(QUARANTINE_AFTER + 1) * len(obligations)``.
        """
        # Cache hits settle first, in input order: a hit never ships, and
        # only the misses are cut into units.
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
        if all(obligations[i].payload is None for i in pending):
            # Nothing would ship: the pass runs inline, as serial does,
            # and no pool is touched.
            self._run_serial(obligations, pending, stop_on, outcomes)
            return
        transport = _PoolTransport(self)
        try:
            self._dispatch_loop(transport, obligations, pending, stop_on,
                                outcomes)
        finally:
            transport.close()

    def _dispatch_loop(self, transport, obligations, pending, stop_on,
                       outcomes) -> None:
        ready = deque(self._form_units(pending))
        suspects: deque = deque()    # members of lost units, as solo units
        solo = False                 # the last unit shipped is a suspect
        losses: Dict[int, int] = {}  # lost units that held member i
        blames: Dict[int, int] = {}  # ... that held it alone
        sent_at: Dict[int, float] = {}   # on the monotonic clock
        free_at: Dict[int, float] = {}   # worker pid -> end of its last unit
        finished = 0
        stopped = False
        raise_exc = None

        def finalize(index: int, outcome: ObligationOutcome) -> None:
            nonlocal finished, stopped, raise_exc
            outcomes[index] = outcome
            finished += 1
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
            now = time.monotonic()
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
            events = transport.poll()
            received = time.monotonic()
            for event in events:
                if event[0] == "done":
                    _, results, stamp = event
                    for result in results:
                        i = result[0]
                        finalize(i, self._settle(
                            obligations[i], _decoded(obligations[i], result),
                            losses.get(i, 0)))
                    self.telemetry.record(
                        ev.DISPATCHED, "exec",
                        f"dispatch[{len(results)}]",
                        wall=_wire_seconds(sent_at[results[0][0]], received,
                                           stamp, free_at),
                        detail=f"items={len(results)}")
                elif event[0] == "expired":
                    message = f"no result within {self.timeout_seconds}s " \
                              f"(worker unresponsive)"
                    for i in event[1]:
                        finalize(i, self._settle(obligations[i], (
                            i, TIMED_OUT, message,
                            self.timeout_seconds or 0.0, 0, (), None)))
                elif event[0] == "split":
                    ready.extendleft((i,) for i in reversed(event[1]))
                else:
                    _, members, reason = event
                    for i in members:
                        ob = obligations[i]
                        losses[i] = losses.get(i, 0) + 1
                        # While a suspect runs nothing else is in flight,
                        # so only then is the loss this member's doing.
                        blame = blames.get(i, 0) + (1 if solo else 0)
                        blames[i] = blame
                        self.telemetry.record(
                            ev.CRASHED, ob.kind, ob.label,
                            detail=f"{reason}; blame "
                                   f"{blame}/{QUARANTINE_AFTER}")
                        if blame < QUARANTINE_AFTER:
                            suspects.append((i,))
                            continue
                        self.telemetry.record(
                            ev.QUARANTINED, ob.kind, ob.label,
                            detail=f"lost its worker alone {blame} times")
                        finalize(i, ObligationOutcome(
                            obligation=ob, status=CRASHED,
                            attempts=losses[i],
                            error=f"obligation lost its worker alone "
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

    def _settle(self, ob: Obligation, result: tuple,
                losses: int = 0) -> ObligationOutcome:
        """One result tuple in the shape :func:`_process_worker` returns,
        its value decoded, as an outcome -- with its telemetry and cache
        fill.  Inline and shipped obligations settle here alike."""
        _, status, value, wall, attempts, retry_errors, exc = result
        for message in retry_errors:
            self.telemetry.record(ev.RETRIED, ob.kind, ob.label,
                                  detail=message)
        if status == OK:
            keyed = ob.cache_key is not None and self.cache is not None
            self.telemetry.record(ev.FINISHED, ob.kind, ob.label, wall=wall,
                                  detail="keyed" if keyed else "")
            if attempts > 1 or losses:
                self.telemetry.record(
                    ev.RETRIED_OK, ob.kind, ob.label,
                    detail=f"succeeded on attempt {attempts}"
                    + (", after a lost worker" if losses else ""))
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

