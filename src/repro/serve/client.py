"""A thin synchronous client for the verification daemon.

Talks the line-delimited JSON protocol to a daemon it spawns as a
subprocess (:meth:`ServeClient.spawn`) over the daemon's stdin/stdout.
A reader thread parses every incoming line and files it: ``event``
messages accumulate per request id (``events_for``), terminal ``result``
messages resolve ``wait``, and everything else (``accepted``, ``pong``,
``status``, ``error``, ...) lands in a reply queue consumed by the
request methods.  The client is deliberately dumb -- no retries, no
reconnects -- because its job is to exercise the daemon's guarantees,
not to mask them.
"""

from __future__ import annotations

import json
import os
import queue
import subprocess
import sys
import threading
from typing import Dict, List, Optional

from .protocol import PROTOCOL_VERSION

__all__ = ["ServeClient", "ClientError"]

_REPLY_KINDS = ("accepted", "pong", "status", "error", "bye")


class ClientError(Exception):
    """The daemon replied with an ``error`` message (the protocol code
    and detail are in the message)."""

    def __init__(self, message: dict):
        detail = message.get("detail") or message.get("code") or "error"
        super().__init__(f"{message.get('code', 'error')}: {detail}")
        self.message = message


class ServeClient:
    """One connection to a running daemon.  Not thread-safe: issue
    requests from one thread (the internal reader thread is private)."""

    def __init__(self, send_line, close_transport,
                 process: Optional[subprocess.Popen] = None,
                 readable=None):
        self._send_line = send_line
        self._close_transport = close_transport
        self.process = process
        self._replies: "queue.Queue[dict]" = queue.Queue()
        self._events: Dict[str, List[dict]] = {}
        self._results: Dict[str, dict] = {}
        self._errors: Dict[str, dict] = {}
        self._result_ready = threading.Condition()
        self._closed = False
        self._reader = threading.Thread(target=self._read_loop,
                                        args=(readable,),
                                        name="serve-client-reader",
                                        daemon=True)
        self._reader.start()

    # -- construction --------------------------------------------------------

    @classmethod
    def spawn(cls, *daemon_args: str,
              python: Optional[str] = None) -> "ServeClient":
        """Launch ``python -m repro.serve <daemon_args>`` as a subprocess
        and connect to it."""
        src_dir = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        process = subprocess.Popen(
            [python or sys.executable, "-m", "repro.serve", *daemon_args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)

        def send_line(data: bytes) -> None:
            process.stdin.write(data)
            process.stdin.flush()

        def close_transport() -> None:
            try:
                process.stdin.close()
            except (BrokenPipeError, OSError):
                pass

        return cls(send_line, close_transport, process=process,
                   readable=process.stdout)

    # -- the reader thread ---------------------------------------------------

    def _read_loop(self, readable) -> None:
        # The closed flag is set on *any* exit -- clean end-of-stream or a
        # transport exception -- inside the finally: a waiter must never
        # sit out its full timeout against a reader that is already dead.
        try:
            for raw in readable:
                try:
                    message = json.loads(raw.decode("utf-8"))
                except ValueError:
                    continue   # sub-daemon noise on a shared stream
                if not isinstance(message, dict):
                    continue
                reply = message.get("reply")
                if reply == "event":
                    self._events.setdefault(message.get("id", "?"),
                                            []).append(message["event"])
                elif reply == "result":
                    with self._result_ready:
                        self._results[message["id"]] = message
                        self._result_ready.notify_all()
                elif reply == "error" and \
                        message.get("code") == "unknown_id":
                    # A failed ``wait`` resolves the waiter, not the reply
                    # queue (nothing is blocked on _replies for it).
                    with self._result_ready:
                        self._errors[message.get("id", "?")] = message
                        self._result_ready.notify_all()
                elif reply in _REPLY_KINDS:
                    self._replies.put(message)
        except (OSError, ValueError):
            pass   # transport died underneath us; the finally resolves
                   # every waiter instead of a thread traceback
        finally:
            with self._result_ready:
                self._closed = True
                self._result_ready.notify_all()

    # -- requests ------------------------------------------------------------

    def _send(self, message: dict) -> None:
        message.setdefault("protocol", PROTOCOL_VERSION)
        self._send_line(json.dumps(message, separators=(",", ":"))
                        .encode("utf-8") + b"\n")

    def _reply(self, timeout: float) -> dict:
        try:
            message = self._replies.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError("no reply from daemon") from None
        if message.get("reply") == "error":
            raise ClientError(message)
        return message

    def ping(self, payload=None, timeout: float = 10.0) -> dict:
        self._send({"op": "ping", "payload": payload})
        return self._reply(timeout)

    def status(self, timeout: float = 10.0) -> dict:
        self._send({"op": "status"})
        return self._reply(timeout)

    def submit(self, *, kind: str, package: dict,
               subprograms: Optional[List[str]] = None,
               lane: Optional[str] = None, scripts: bool = True,
               exec: Optional[dict] = None, params: Optional[dict] = None,
               id: Optional[str] = None, timeout: float = 30.0) -> dict:
        """Submit a request; returns the ``accepted`` reply (raises
        :class:`ClientError` on rejection -- bad request, duplicate id,
        backpressure)."""
        message = {"op": "submit", "kind": kind, "package": package,
                   "scripts": scripts}
        if subprograms is not None:
            message["subprograms"] = subprograms
        if lane is not None:
            message["lane"] = lane
        if exec is not None:
            message["exec"] = exec
        if params is not None:
            message["params"] = params
        if id is not None:
            message["id"] = id
        self._send(message)
        return self._reply(timeout)

    def wait(self, request_id: str,
             timeout: Optional[float] = 300.0) -> dict:
        """Block until the request's terminal ``result`` message.
        ``timeout=None`` blocks forever (until the result arrives or the
        connection dies)."""
        with self._result_ready:
            if request_id not in self._results:
                try:
                    self._send({"op": "wait", "id": request_id})
                except (BrokenPipeError, OSError, ValueError):
                    pass   # transport already dead: the reader's exit
                           # (below) resolves this wait as closed
            ok = self._result_ready.wait_for(
                lambda: request_id in self._results
                or request_id in self._errors or self._closed,
                timeout=timeout)
            if request_id in self._results:
                return self._results[request_id]
            if request_id in self._errors:
                raise ClientError(self._errors.pop(request_id))
            if not ok:
                raise TimeoutError(f"no result for {request_id!r} "
                                   f"within {timeout}s")
        # Stream closed without the result: surface any queued error.
        try:
            message = self._replies.get_nowait()
        except queue.Empty:
            raise ClientError({"code": "connection_closed",
                               "detail": f"stream ended before result "
                                         f"for {request_id!r}"}) from None
        if message.get("reply") == "error":
            raise ClientError(message)
        raise ClientError({"code": "connection_closed",
                           "detail": f"stream ended before result "
                                     f"for {request_id!r}"})

    def events_for(self, request_id: str) -> List[dict]:
        """The ``event`` stream received so far for a request id."""
        return list(self._events.get(request_id, []))

    def shutdown(self, timeout: float = 10.0) -> None:
        """Ask the daemon to exit gracefully (drains running work)."""
        try:
            self._send({"op": "shutdown"})
        except (BrokenPipeError, OSError):
            return
        try:
            self._reply(timeout)
        except (TimeoutError, ClientError):
            pass

    def close(self, timeout: float = 30.0) -> None:
        self._close_transport()
        if self.process is not None:
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=5.0)
