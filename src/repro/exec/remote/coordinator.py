"""The proof-farm coordinator: the remote backend's socket transport.

One :class:`RemoteCoordinator` serves one ``backend='remote'`` pass of
the scheduler: it is the transport under the shared dispatch loop of
:mod:`repro.exec.scheduler` (``busy``/``submit``/``poll``/``close``,
DESIGN.md §11).  It owns the farm's connection state and leases and
speaks the versioned wire protocol of :mod:`repro.protocol`:

**Connections.**  Workers either dial in (``listen='host:port'``) or
are dialed out to (``dial=('host:port', ...)`` -- each address gets a
dialer thread that reconnects with backoff after a drop, so a worker
that restarts rejoins the same run).  Every connection starts with a
``hello``/``welcome`` handshake that *requires* a matching protocol
version (:func:`~repro.protocol.check_protocol_version` with
``required=True``): a version-skewed worker is rejected loudly with a
``protocol_mismatch`` error, never silently tolerated.

**Leases.**  A dispatch unit is *leased* to a worker as the job the
scheduler built for it -- its ``(index, payload, token)`` entries (a
solo obligation is a unit of one, DESIGN.md §18), the retry policy and
the timeout -- at most ``jobs`` leases in flight and
:attr:`~RemoteCoordinator.PER_WORKER` per worker: the lease record is
registered before the ``lease`` message is sent (journal-before-send,
the discipline :mod:`repro.serve.journal` uses for requests), the worker
``ack``\\ s receipt, and the terminal ``result`` message -- one result
tuple per member -- retires the lease.  A lease found past its
deadline (derived from the per-obligation timeout) on a poll marks the
whole connection suspect -- the coordinator closes it and blames every
lease the worker held, exactly as if the host had died.

**Failure taxonomy.**  A dead connection (EOF, send failure, protocol
violation, expired lease) reports each of its leases ``lost`` -- the
scheduler blames those obligations and re-runs them solo, steered away
from the host that lost them while another is alive.  A worker that
loses leases ``FLAP_STRIKES`` times is *quarantined by name*: its
re-registrations are rejected and a ``quarantined`` telemetry event
records it.  An idle disconnect (no leases held) is not a strike --
reconnect churn on a quiet farm is not flapping.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from collections import Counter
from typing import Dict, List, NamedTuple, Optional, Sequence

from ...protocol import PROTOCOL_VERSION, ProtocolError, \
    check_protocol_version
from .. import events as ev
from ..scheduler import BackendUnusableError, _unit_errored
from ..telemetry import default_telemetry
from .link import Link, decode_blob, encode_blob, parse_address

__all__ = ["RemoteCoordinator"]


class _Worker(NamedTuple):
    """One live connection's registry entry (its leases are the
    coordinator's ``_leases`` that name it)."""

    name: str
    link: Link


class _Lease(NamedTuple):
    """One dispatch unit on one worker; a lost connection blames every
    member of ``indices``."""

    indices: tuple
    worker: _Worker
    deadline: Optional[float]


class RemoteCoordinator:
    #: Seconds a fresh connection gets to deliver its ``hello``.
    HELLO_TIMEOUT = 10.0
    #: Lease losses after which a worker name is quarantined.
    FLAP_STRIKES = 2
    #: Pause between reconnect attempts of a dialer thread.
    DIAL_BACKOFF = 0.25
    #: Seconds :meth:`poll` waits for a worker to register while work is
    #: pending (at start-up, and again after losing every worker) before
    #: declaring the backend unusable.  Tests shrink this.
    WORKER_GRACE = 10.0
    #: Leases one worker may hold at once.  2 keeps one unit queued
    #: behind the one executing, so the worker never idles waiting on
    #: the coordinator's dispatch latency.
    PER_WORKER = 2

    def __init__(self, listen: Optional[str] = None,
                 dial: Sequence[str] = (), *, jobs: int = 1,
                 timeout: Optional[float] = None, slack: float = 0.0,
                 telemetry=None):
        """At most ``jobs`` leases in flight; ``timeout`` is the
        per-obligation timeout and ``slack`` the parent-side slack on top
        of it, from which lease deadlines derive; ``telemetry`` records
        quarantines (default: the process-wide log)."""
        if listen is None and not dial:
            raise ValueError("coordinator needs listen= or dial= workers")
        self._listen = listen
        self._dial = tuple(dial)
        self._jobs = jobs
        self._telemetry = telemetry if telemetry is not None \
            else default_telemetry()
        # PER_WORKER leases, each bounded worker-side by SIGALRM, bound
        # one lease; without a timeout, leases never expire.
        self._lease_timeout = None if timeout is None else (
            self.PER_WORKER * timeout * 1.5 + slack)
        #: "host:port" actually bound when listening (port 0 resolved).
        self.bound_address: Optional[str] = None
        #: Guards the registry; notified on every join, result and loss.
        self._lock = threading.Condition(threading.RLock())
        self._workers: Dict[str, _Worker] = {}
        self._leases: Dict[str, _Lease] = {}
        #: Transport events not yet polled: ("done", results, details) |
        #: ("lost", members, reason).
        self._events: List[tuple] = []
        #: obligation index -> name of the worker that last lost it.
        self._blamed_on: Dict[int, str] = {}
        #: worker name -> leases lost; FLAP_STRIKES quarantines the name.
        self._strikes: Dict[str, int] = {}
        self._lease_ids = itertools.count(1)
        self._stopping = threading.Event()
        self._server: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Bind/dial and start the service threads.  Raises ``OSError``
        when the listen address cannot be bound."""
        if self._listen is not None:
            host, port = parse_address(self._listen)
            server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            server.bind((host, port))
            server.listen(16)
            self._server = server
            bound = server.getsockname()
            self.bound_address = f"{bound[0]}:{bound[1]}"
            self._spawn(self._accept_loop, "farm-accept")
        for address in self._dial:
            self._spawn(self._dial_loop, f"farm-dial-{address}", address)

    def stop(self) -> None:
        """Close every connection and stop the threads.  Idempotent."""
        self._stopping.set()
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
        with self._lock:
            workers = list(self._workers.values())
            self._workers.clear()
            self._leases.clear()
        for worker in workers:
            try:
                worker.link.send({"op": "bye"})
            except OSError:
                pass
            worker.link.close()
        for thread in self._threads:
            thread.join(timeout=2.0)

    def _spawn(self, target, name, *args) -> None:
        thread = threading.Thread(target=target, args=args, name=name,
                                  daemon=True)
        thread.start()
        self._threads.append(thread)

    # -- the transport ------------------------------------------------------

    @property
    def busy(self) -> bool:
        with self._lock:
            return bool(self._leases or self._events)

    def submit(self, members: tuple, job: tuple) -> bool:
        """Lease one unit to the least-loaded worker with an open slot,
        preferring workers that did not lose a member before (the solo
        re-run of a blamed obligation avoids the host that lost it, when
        another is alive).  The unit occupies *one* slot and one
        ``ack``/``result`` round trip; the lease records every member, so
        a dead connection blames each of them.  False when ``jobs``
        leases are in flight or no worker has capacity.

        The lease is registered before the send (journal-before-send); a
        send that fails retires the lease *before* dropping the worker --
        it never reached the worker, so its members are not blamed, only
        the worker's delivered leases are -- and another worker is
        tried."""
        while True:
            with self._lock:
                load = Counter(lease.worker for lease in self._leases.values())
                open_slots = [w for w in self._workers.values()
                              if load[w] < self.PER_WORKER]
                if len(self._leases) >= self._jobs or not open_slots:
                    return False
                avoid = {self._blamed_on.get(i) for i in members}
                worker = min([w for w in open_slots if w.name not in avoid]
                             or open_slots, key=load.__getitem__)
                lease_id = f"L{next(self._lease_ids)}"
                # A unit's deadline scales with its size: K obligations
                # legitimately take K times one obligation's budget.
                deadline = (time.monotonic()
                            + self._lease_timeout * len(members)
                            if self._lease_timeout is not None else None)
                self._leases[lease_id] = _Lease(members, worker, deadline)
            try:
                worker.link.send({"op": "lease", "lease": lease_id,
                                  "blob": encode_blob(job)})
                return True
            except OSError as exc:
                with self._lock:
                    self._leases.pop(lease_id, None)
                self._drop_worker(worker, f"send failed: {exc}")

    def poll(self) -> List[tuple]:
        """The transport events since the last poll, waiting briefly for
        one.  A lease past its deadline drops its worker first.  With
        work pending and no worker registered (none joined yet, or every
        one lost or quarantined), a worker gets :attr:`WORKER_GRACE`
        seconds to join."""
        now = time.monotonic()
        with self._lock:
            expired = {lease.worker for lease in self._leases.values()
                       if lease.deadline is not None
                       and lease.deadline <= now}
        for worker in expired:
            self._drop_worker(worker, "lease expired")
        with self._lock:
            if not (self._leases or self._events or self._workers):
                if not self._lock.wait_for(lambda: self._workers,
                                           self.WORKER_GRACE):
                    raise BackendUnusableError(
                        "remote", f"no workers joined within "
                                  f"{self.WORKER_GRACE}s "
                                  f"(none came, or all were lost or "
                                  f"quarantined)")
                return []
            if not self._events:
                self._lock.wait(timeout=0.25)
            events, self._events = self._events, []
        return events

    def close(self) -> None:
        self.stop()

    # -- connection service -------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, _ = self._server.accept()
            except OSError:
                return   # server socket closed by stop()
            self._spawn(self._serve_connection, "farm-conn", sock)

    def _dial_loop(self, address: str) -> None:
        """Keep one worker address connected: dial, serve, reconnect
        with backoff after a drop.  Stops when the run ends or the
        worker at that address is rejected (quarantined/mismatched)."""
        while not self._stopping.is_set():
            try:
                sock = socket.create_connection(parse_address(address),
                                                timeout=5.0)
            except OSError:
                if self._stopping.wait(self.DIAL_BACKOFF):
                    return
                continue
            status = self._serve_connection(sock)
            if status == "rejected" or self._stopping.is_set():
                return
            self._stopping.wait(self.DIAL_BACKOFF)

    def _serve_connection(self, sock: socket.socket) -> str:
        """Handshake, register, then pump messages until the connection
        dies.  Returns ``"rejected"`` when the worker must not
        reconnect (quarantined, duplicate, version mismatch)."""
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        link = Link(sock)
        try:
            hello = link.recv(timeout=self.HELLO_TIMEOUT)
        except (ProtocolError, OSError, socket.timeout):
            hello = None
        if hello is None or hello.get("op") != "hello":
            link.close()
            return "rejected"
        name = hello.get("name")
        if not isinstance(name, str) or not name:
            self._reject(link, ProtocolError(
                "bad_request", "hello must carry a non-empty worker name"))
            return "rejected"
        try:
            check_protocol_version(hello.get("protocol"),
                                   surface="farm-coordinator",
                                   required=True)
        except ProtocolError as exc:
            self._reject(link, exc)
            return "rejected"
        with self._lock:
            if self._strikes.get(name, 0) >= self.FLAP_STRIKES:
                self._reject(link, ProtocolError(
                    "quarantined",
                    f"worker {name!r} is quarantined (lost leases "
                    f"{self._strikes.get(name, 0)} times)"))
                return "rejected"
            if name in self._workers:
                self._reject(link, ProtocolError(
                    "duplicate_id",
                    f"worker {name!r} is already connected"))
                return "rejected"
            # Welcome inside the registration lock: TCP delivers in send
            # order, so the worker sees the welcome before any lease the
            # scheduler races to send it.
            try:
                link.send({"reply": "welcome",
                           "protocol": PROTOCOL_VERSION})
            except OSError:
                link.close()
                return "rejected"
            worker = _Worker(name, link)
            self._workers[name] = worker
            self._lock.notify_all()
        reason = "connection closed"
        try:
            while not self._stopping.is_set():
                message = link.recv()
                if message is None:
                    break
                self._handle(worker, message)
        except ProtocolError as exc:
            reason = f"protocol violation: {exc.detail}"
        except OSError as exc:
            reason = f"transport error: {exc}"
        self._drop_worker(worker, reason)
        return "closed"

    def _reject(self, link: Link, error: ProtocolError) -> None:
        try:
            link.send(error.to_message())
        except OSError:
            pass
        link.close()

    def _handle(self, worker: _Worker, message: dict) -> None:
        # An ``ack`` needs no bookkeeping: the lease is already journaled,
        # and only its result (or the connection's loss) retires it.
        # Unknown messages are ignored: forward compatibility within a
        # protocol generation.
        if message.get("reply") != "result":
            return
        try:
            results, error = tuple(decode_blob(message["blob"])), None
        except Exception as exc:   # noqa: BLE001 - wire-data boundary
            results, error = None, exc
        # Retiring the lease and queueing its results is one step, so
        # ``busy`` never reads False while results are unpolled.
        with self._lock:
            lease = self._leases.pop(message.get("lease"), None)
            if lease is None:
                return   # stale: lease expired/blamed before the results
            if results is None:
                results = _unit_errored(
                    lease.indices, f"undecodable result blob from "
                                   f"{worker.name}: {error}")
            self._events.append(("done", results,
                                 (f"worker={worker.name}",) * len(results)))
            self._lock.notify_all()

    # -- failure paths ------------------------------------------------------

    def _drop_worker(self, worker: _Worker, reason: str) -> None:
        """Unified lost-connection path: unregister, report every lease
        the worker held lost, strike (and maybe quarantine) the name."""
        name = worker.name
        strikes = 0
        with self._lock:
            if self._workers.get(name) is not worker:
                worker.link.close()
                return   # already dropped (poll/reader race)
            del self._workers[name]
            units = [self._leases.pop(lease_id).indices
                     for lease_id, lease in list(self._leases.items())
                     if lease.worker is worker]
            if units and not self._stopping.is_set():
                strikes = self._strikes[name] = self._strikes.get(name, 0) + 1
                for unit in units:
                    self._blamed_on.update(dict.fromkeys(unit, name))
                    self._events.append(
                        ("lost", unit, f"worker {name} lost ({reason})"))
            self._lock.notify_all()
        worker.link.close()
        if strikes == self.FLAP_STRIKES:   # a quarantined name never returns
            self._telemetry.record(
                ev.QUARANTINED, "exec", f"worker:{name}",
                detail=f"lost in-flight leases {strikes} times "
                       f"(flapping); re-registration rejected")
