"""Socket plumbing for the proof farm: framed JSON links and blobs.

A :class:`Link` wraps one connected socket with the shared line-JSON
framing of :mod:`repro.protocol` (one object per newline-terminated
line): thread-safe sends, blocking receives, orderly close.  Payloads
and result tuples -- which carry term DAGs and are picklable but not
JSON-able -- travel inside control messages as base64-pickled blobs
(:func:`encode_blob`/:func:`decode_blob`); terms re-intern on unpickle
through :mod:`repro.logic.wire`, so hash-consing identity survives the
hop exactly as it does across the process backend's pipe.
"""

from __future__ import annotations

import base64
import pickle
import socket
import threading
from typing import Any, Optional, Tuple

from ...protocol import MAX_LINE_BYTES, ProtocolError, encode_message, \
    parse_json_line

__all__ = ["Link", "encode_blob", "decode_blob", "parse_address"]


def encode_blob(obj: Any) -> str:
    """A picklable object as a base64 string (ASCII, newline-free)."""
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def decode_blob(data: str) -> Any:
    """Inverse of :func:`encode_blob`."""
    return pickle.loads(base64.b64decode(data.encode("ascii")))


def parse_address(address: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)``.  A bare ``":port"`` means all
    interfaces (bind) / localhost (connect)."""
    if not isinstance(address, str) or ":" not in address:
        raise ValueError(f"bad address {address!r}: expected 'host:port'")
    host, _, port = address.rpartition(":")
    try:
        port_num = int(port)
    except ValueError:
        raise ValueError(f"bad address {address!r}: port is not an integer")
    if not 0 <= port_num <= 65535:
        raise ValueError(f"bad address {address!r}: port out of range")
    return host or "127.0.0.1", port_num


class Link:
    """One framed-JSON connection.  ``send`` is thread-safe (the
    coordinator's scheduler thread and reader thread both write);
    ``recv`` is single-consumer."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._send_lock = threading.Lock()
        self._closed = False

    def send(self, message: dict) -> None:
        """Write one message; raises ``OSError`` on a dead transport."""
        data = encode_message(message).encode("utf-8")
        with self._send_lock:
            self._sock.sendall(data)

    def recv(self, timeout: Optional[float] = None) -> Optional[dict]:
        """Read one message; ``None`` on end-of-stream.  Raises
        :class:`~repro.protocol.ProtocolError` on an unparsable line,
        ``OSError``/``socket.timeout`` on transport failure."""
        if timeout is not None:
            self._sock.settimeout(timeout)
        try:
            raw = self._rfile.readline(MAX_LINE_BYTES + 2)
        finally:
            if timeout is not None:
                self._sock.settimeout(None)
        if not raw:
            return None
        line = raw.decode("utf-8", errors="replace")
        if not line.endswith("\n"):
            raise ProtocolError("bad_request",
                                f"unterminated or oversize line "
                                f"({len(raw)} bytes)")
        return parse_json_line(line.rstrip("\n"))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for closer in (lambda: self._sock.shutdown(socket.SHUT_RDWR),
                       self._rfile.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass
