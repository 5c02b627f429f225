"""The shared wire-protocol surface: versioning, framing, error codes.

Two subsystems speak line-delimited JSON over a byte stream: the serve
daemon (``repro.serve``, client-facing) and the proof farm
(``repro.exec.remote``, coordinator ↔ worker).  Both frame one JSON
object per ``\\n``-terminated line and both need the same three
primitives, factored here so the schema constants cannot drift apart:

* an explicit **protocol version** (:data:`PROTOCOL_VERSION`) that every
  peer advertises and validates -- a serve client may omit it (older
  clients predate the field) but a remote worker must send it, because a
  version-skewed worker computing verdicts silently is far worse than a
  stale dashboard;
* a shared **error envelope** (:class:`ProtocolError` rendering to
  ``{"reply": "error", "code": ..., "detail": ...}``) with the error-code
  vocabulary in :data:`ERROR_CODES`;
* **framing helpers** (:func:`encode_message`, :func:`parse_json_line`)
  enforcing the one-object-per-line, bounded-size discipline.

The serve-specific schema (ops, lanes, request kinds, submit
normalization) stays in :mod:`repro.serve.protocol`, which re-exports
everything here for backward compatibility.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

__all__ = [
    "PROTOCOL_VERSION", "ERROR_CODES", "MAX_LINE_BYTES", "ProtocolError",
    "encode_message", "parse_json_line", "check_protocol_version",
]

#: The wire-protocol generation.  Version 1 was the PR-6 serve protocol
#: (no version field on the wire); version 2 added the explicit
#: ``protocol`` field and the remote-worker handshake that requires it;
#: version 3 added the batched lease generation (``lease_batch`` /
#: ``result_batch``, DESIGN.md §18) beside the solo ``lease``/``result``
#: and the workers' read-through to the coordinator's cache; version 4
#: keeps one lease shape -- every ``lease`` carries a batch and every
#: ``result`` one result tuple per member -- and drops the read-through;
#: version 5 drops the batch envelope: a lease's blob is the unit's bare
#: tuple of ``(index, payload, token)`` entries with the retry policy and
#: timeout (no hoisted warm normalization batches, no ``timeout`` field).
#: Dropping ``VCPayload``'s two defaulted warm-norm fields kept version
#: 5: the lease shape is unchanged, and a payload pickled by either side
#: loads and runs on the other (extra fields land in the instance dict
#: unread, missing ones read their class defaults).
#: A peer of another generation would misread or stall on the lease
#: messages, so the handshake rejects it: bumping here is what turns that
#: skew into a loud ``protocol_mismatch``.
PROTOCOL_VERSION = 5

#: The machine-readable ``code`` vocabulary of ``error`` replies, shared
#: by the serve daemon and the farm coordinator.  ``protocol_mismatch``
#: rejects a version-skewed peer; ``quarantined`` rejects a flapping
#: farm worker's re-registration.
ERROR_CODES = ("bad_request", "backpressure", "duplicate_id",
               "unknown_id", "protocol_mismatch", "quarantined")

#: Upper bound on one wire line.  An inline MiniAda package or a
#: base64-pickled obligation payload fits easily.
MAX_LINE_BYTES = 8 * 1024 * 1024


class ProtocolError(Exception):
    """A peer-visible protocol failure, rendered as an ``error`` reply."""

    def __init__(self, code: str, detail: str,
                 request_id: Optional[str] = None):
        assert code in ERROR_CODES, code
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail
        self.request_id = request_id

    def to_message(self) -> dict:
        msg = {"reply": "error", "code": self.code, "detail": self.detail}
        if self.request_id is not None:
            msg["id"] = self.request_id
        return msg


def encode_message(message: Dict[str, Any]) -> str:
    """One wire line (newline-terminated, newline-free payload)."""
    return json.dumps(message, separators=(",", ":"),
                      ensure_ascii=True) + "\n"


def parse_json_line(line: str,
                    max_bytes: int = MAX_LINE_BYTES) -> dict:
    """Parse one wire line into a message dict, or raise
    :class:`ProtocolError` (oversize, non-JSON, non-object).  Schema
    validation beyond "it is a JSON object" is the caller's."""
    if len(line) > max_bytes:
        raise ProtocolError("bad_request",
                            f"line exceeds {max_bytes} bytes")
    try:
        message = json.loads(line)
    except ValueError:
        raise ProtocolError("bad_request", "line is not valid JSON")
    if not isinstance(message, dict):
        raise ProtocolError("bad_request",
                            f"expected a JSON object, got "
                            f"{type(message).__name__}")
    return message


def check_protocol_version(value: Any, *, surface: str,
                           required: bool = False) -> None:
    """Validate a peer's advertised ``protocol`` field against
    :data:`PROTOCOL_VERSION`.

    ``value`` is the field as received (``None`` when absent).  Serve
    clients may omit it (``required=False``: version-1 clients predate
    the field); the remote-worker handshake must send it
    (``required=True``).  A present-but-wrong version always raises --
    loudly, with both versions named -- because silently mixing protocol
    generations is exactly the failure this field exists to prevent.
    """
    if value is None:
        if required:
            raise ProtocolError(
                "protocol_mismatch",
                f"{surface}: peer did not advertise a protocol version "
                f"(this side speaks version {PROTOCOL_VERSION})")
        return
    if value != PROTOCOL_VERSION:
        raise ProtocolError(
            "protocol_mismatch",
            f"{surface}: peer speaks protocol version {value!r}, "
            f"this side speaks {PROTOCOL_VERSION}")
