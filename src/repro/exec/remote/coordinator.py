"""The proof-farm coordinator: worker registry and leases.

One :class:`RemoteCoordinator` lives inside the scheduler's
``backend='remote'`` run (the socket transport of
:mod:`repro.exec.scheduler`).  It owns the farm's connection
state and speaks the versioned wire protocol of :mod:`repro.protocol`
-- the scheduler only sees a lease API and an event queue:

**Connections.**  Workers either dial in (``listen='host:port'``) or
are dialed out to (``dial=('host:port', ...)`` -- each address gets a
dialer thread that reconnects with backoff after a drop, so a worker
that restarts rejoins the same run).  Every connection starts with a
``hello``/``welcome`` handshake that *requires* a matching protocol
version (:func:`~repro.protocol.check_protocol_version` with
``required=True``): a version-skewed worker is rejected loudly with a
``protocol_mismatch`` error, never silently tolerated.

**Leases.**  A dispatch unit is *leased* to a worker as one
:class:`~repro.exec.payload.BatchPayload` (a solo obligation is a batch
of one, DESIGN.md §18): the lease record is registered before the
``lease`` message is sent (journal-before-send, the discipline
:mod:`repro.serve.journal` uses for requests), the worker ``ack``\\ s
receipt, and the terminal ``result`` message -- one result tuple per
member -- retires the lease.  A lease that outlives its deadline marks
the whole connection suspect -- the coordinator closes it and blames
every lease the worker held, exactly as if the host had died.

**Failure taxonomy.**  A dead connection (EOF, send failure, protocol
violation, expired lease) is one event: ``("lost", name, units,
reason)`` -- the scheduler blames those obligations and re-runs them
solo, per PR 4's crash machinery.  A worker that loses leases
``FLAP_STRIKES`` times is *quarantined by name*: its re-registrations
are rejected (``("quarantined", name, reason)`` tells the scheduler to
record telemetry).  An idle disconnect (no leases held) is not a
strike -- reconnect churn on a quiet farm is not flapping.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Set

from ...protocol import PROTOCOL_VERSION, ProtocolError, \
    check_protocol_version
from .link import Link, decode_blob, encode_blob, parse_address

__all__ = ["RemoteCoordinator"]


class _Worker:
    """One live connection's registry entry."""

    def __init__(self, name: str, link: Link):
        self.name = name
        self.link = link
        self.lease_ids: Set[str] = set()


class _Lease:
    """One dispatch unit on one worker; a lost connection blames every
    member of ``indices``."""

    def __init__(self, lease_id: str, indices: tuple, worker: _Worker,
                 deadline: Optional[float]):
        self.lease_id = lease_id
        self.indices = indices
        self.worker = worker
        self.deadline = deadline


class RemoteCoordinator:
    #: Seconds a fresh connection gets to deliver its ``hello``.
    HELLO_TIMEOUT = 10.0
    #: Lease losses after which a worker name is quarantined.
    FLAP_STRIKES = 2
    #: Pause between reconnect attempts of a dialer thread.
    DIAL_BACKOFF = 0.25
    #: Lease-expiry scan period.
    MONITOR_PERIOD = 0.1

    def __init__(self, listen: Optional[str] = None,
                 dial: Sequence[str] = (),
                 lease_timeout: Optional[float] = None,
                 per_worker: int = 2):
        if listen is None and not dial:
            raise ValueError("coordinator needs listen= or dial= workers")
        self._listen = listen
        self._dial = tuple(dial)
        self._lease_timeout = lease_timeout
        self._per_worker = max(1, per_worker)
        #: Farm events for the scheduler: ("joined", name) |
        #: ("result", name, indices, result_tuples) |
        #: ("lost", name, [indices of each lease], reason) |
        #: ("quarantined", name, reason).
        self.events: "queue.Queue[tuple]" = queue.Queue()
        #: "host:port" actually bound when listening (port 0 resolved).
        self.bound_address: Optional[str] = None
        self._lock = threading.RLock()
        self._joined = threading.Condition(self._lock)
        self._workers: Dict[str, _Worker] = {}
        self._leases: Dict[str, _Lease] = {}
        self._strikes: Dict[str, int] = {}
        self._quarantined: Set[str] = set()
        self._sequence = 0
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
        self._spawn(self._monitor_loop, "farm-monitor")

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

    # -- scheduler-facing API -----------------------------------------------

    def live_workers(self) -> int:
        with self._lock:
            return len(self._workers)

    def wait_for_workers(self, count: int, timeout: float) -> bool:
        """Block until ``count`` workers are registered (True) or the
        timeout passes (False)."""
        deadline = time.monotonic() + timeout
        with self._joined:
            while len(self._workers) < count:
                left = deadline - time.monotonic()
                if left <= 0 or self._stopping.is_set():
                    return False
                self._joined.wait(timeout=left)
            return True

    def poll(self, timeout: Optional[float] = None) -> Optional[tuple]:
        """The next farm event, or ``None`` after ``timeout``."""
        try:
            return self.events.get(timeout=timeout)
        except queue.Empty:
            return None

    def lease_batch(self, batch, retry_policy,
                    timeout_seconds: Optional[float],
                    avoid: Sequence[str] = ()) -> Optional[str]:
        """Lease one :class:`~repro.exec.payload.BatchPayload` to the
        least-loaded worker with an open slot, preferring workers not in
        ``avoid`` (the solo re-run of a blamed obligation avoids the host
        that lost it, when another is alive).  The batch occupies *one*
        slot and one ``ack``/``result`` round trip; the lease records
        every member index, so a dead connection blames each of them.
        Returns the worker's name, or ``None`` when no worker has
        capacity.

        The lease is registered before the send (journal-before-send); a
        send that fails retires the lease *before* dropping the worker --
        it never reached the worker, so its members are not blamed, only
        the worker's delivered leases are -- and another worker is
        tried."""
        indices = tuple(index for index, _, _ in batch.entries)
        while True:
            with self._lock:
                open_slots = [w for w in self._workers.values()
                              if len(w.lease_ids) < self._per_worker]
                if not open_slots:
                    return None
                preferred = [w for w in open_slots
                             if w.name not in avoid] or open_slots
                worker = min(preferred, key=lambda w: len(w.lease_ids))
                self._sequence += 1
                lease_id = f"L{self._sequence}"
                # A batch's deadline scales with its size: K obligations
                # legitimately take K times one obligation's budget.
                deadline = (time.monotonic()
                            + self._lease_timeout * len(indices)
                            if self._lease_timeout is not None else None)
                self._leases[lease_id] = _Lease(lease_id, indices, worker,
                                                deadline)
                worker.lease_ids.add(lease_id)
            try:
                worker.link.send({
                    "op": "lease", "lease": lease_id,
                    "blob": encode_blob((batch, retry_policy)),
                    "timeout": timeout_seconds})
                return worker.name
            except OSError as exc:
                with self._lock:
                    self._leases.pop(lease_id, None)
                    worker.lease_ids.discard(lease_id)
                self._drop_worker(worker, f"send failed: {exc}")

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
            link.close()
            return "rejected"
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
            if name in self._quarantined:
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
            self._joined.notify_all()
        self.events.put(("joined", name))
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
        with self._lock:
            lease = self._leases.pop(message.get("lease"), None)
            if lease is not None:
                lease.worker.lease_ids.discard(lease.lease_id)
        if lease is None:
            return   # stale: lease expired/blamed before the results
        try:
            results = tuple(decode_blob(message["blob"]))
        except Exception as exc:   # noqa: BLE001 - wire-data boundary
            results = tuple(
                (index, "errored", f"undecodable result blob from "
                                   f"{worker.name}: {exc}",
                 0.0, 1, (), None) for index in lease.indices)
        self.events.put(("result", worker.name, lease.indices, results))

    # -- failure paths ------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(self.MONITOR_PERIOD):
            now = time.monotonic()
            with self._lock:
                victims = {lease.worker for lease in self._leases.values()
                           if lease.deadline is not None
                           and lease.deadline <= now}
            for worker in victims:
                self._drop_worker(worker, "lease expired")

    def _drop_worker(self, worker: _Worker, reason: str) -> None:
        """Unified lost-connection path: unregister, blame every lease
        the worker held, strike (and maybe quarantine) the name."""
        newly_quarantined = False
        with self._lock:
            if self._workers.get(worker.name) is not worker:
                worker.link.close()
                return   # already dropped (monitor/reader race)
            del self._workers[worker.name]
            units = []
            for lease_id in sorted(worker.lease_ids):
                lease = self._leases.pop(lease_id, None)
                if lease is not None:
                    units.append(lease.indices)
            worker.lease_ids.clear()
            if units and not self._stopping.is_set():
                strikes = self._strikes.get(worker.name, 0) + 1
                self._strikes[worker.name] = strikes
                if strikes >= self.FLAP_STRIKES \
                        and worker.name not in self._quarantined:
                    self._quarantined.add(worker.name)
                    newly_quarantined = True
        worker.link.close()
        if self._stopping.is_set():
            return
        if units:
            self.events.put(("lost", worker.name, units, reason))
        if newly_quarantined:
            self.events.put((
                "quarantined", worker.name,
                f"lost in-flight leases {self._strikes[worker.name]} "
                f"times (flapping); re-registration rejected"))
