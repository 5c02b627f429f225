"""The serve wire protocol: line-delimited JSON over stdio or TCP.

One JSON object per ``\\n``-terminated line, in both directions.  Client
messages carry an ``op``; server messages carry a ``reply``.  The full
schema (with examples) is documented in README "Verification as a
service" and DESIGN.md §14.

Client → server ops
-------------------
``ping``      liveness probe → ``pong``.
``status``    queue depths, lanes, tenants → ``status``.
``submit``    enqueue a verification request → ``accepted`` (then
              streamed ``event`` messages, then a terminal ``result``).
``wait``      (re)attach to a request by id → its ``result`` when done
              (immediately, if it already finished -- the reconnect path
              after a daemon restart).
``shutdown``  graceful stop → ``bye``.

Server → client replies
-----------------------
``pong`` / ``status`` / ``accepted`` / ``event`` / ``result`` / ``bye``
and ``error`` (with a machine-readable ``code``:
``bad_request`` | ``backpressure`` | ``duplicate_id`` | ``unknown_id`` |
``protocol_mismatch``).

Versioning: the framing primitives, error envelope, and
``PROTOCOL_VERSION`` live in the shared :mod:`repro.protocol` module
(the proof-farm coordinator speaks the same generation).  Clients may
advertise ``"protocol": N`` on any message; a mismatched version is
rejected with ``protocol_mismatch``, an absent field is tolerated.

A ``submit`` names a package (the AES corpus or inline MiniAda source),
a request ``kind`` (``examine`` | ``prove`` | ``refactor``), an optional
tenant ``namespace`` (per-tenant warm caches; the default namespace is
``"public"``), an optional priority ``lane`` (``interactive`` | ``bulk``;
defaulted from the kind), and an optional ``exec`` object -- the
JSON-portable subset of :class:`~repro.exec.ExecConfig`
(:meth:`~repro.exec.ExecConfig.from_json`; ``cache``/``telemetry`` never
travel, so a client cannot name another tenant's cache).
"""

from __future__ import annotations

import re
from typing import Optional

from ..exec.config import ExecConfig
from ..protocol import (ERROR_CODES, MAX_LINE_BYTES, PROTOCOL_VERSION,
                        ProtocolError, check_protocol_version,
                        encode_message, parse_json_line)

__all__ = [
    "PROTOCOL_VERSION", "LANES", "LANE_PRIORITY", "REQUEST_KINDS", "OPS",
    "ERROR_CODES", "ProtocolError", "decode_line", "encode_message",
    "normalize_submit", "default_lane",
]

#: Priority lanes, highest priority first.  ``interactive`` is meant for
#: examiner queries a human is waiting on; ``bulk`` for corpus proofs.
LANES = ("interactive", "bulk")
LANE_PRIORITY = LANES   # dispatch preference order

REQUEST_KINDS = ("examine", "prove", "refactor")
OPS = ("ping", "status", "submit", "wait", "shutdown")

#: Kind → lane when the client does not pick one: examiner queries are
#: interactive by nature, proofs and refactoring chains are bulk work.
_DEFAULT_LANES = {"examine": "interactive", "prove": "bulk",
                  "refactor": "bulk"}

#: Request ids (client-chosen or server-assigned) name journal result
#: files and tenant namespaces name per-tenant cache directories, so
#: both must be path-safe.
_PATH_SAFE_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

_MAX_LINE_BYTES = MAX_LINE_BYTES   # an inline MiniAda package fits easily


def decode_line(line: str) -> dict:
    """Parse one client line into a message dict, or raise
    :class:`ProtocolError` (oversize, non-JSON, non-object, bad op,
    version mismatch).  A client that advertises a ``protocol`` field is
    held to it; one that omits it is accepted (version-1 clients predate
    the field)."""
    message = parse_json_line(line, max_bytes=_MAX_LINE_BYTES)
    op = message.get("op")
    if op not in OPS:
        raise ProtocolError("bad_request",
                            f"op must be one of {list(OPS)}, got {op!r}")
    check_protocol_version(message.get("protocol"), surface="serve")
    return message


def default_lane(kind: str) -> str:
    return _DEFAULT_LANES[kind]


def _require_str(message: dict, field: str, default: Optional[str] = None,
                 request_id: Optional[str] = None) -> str:
    value = message.get(field, default)
    if not isinstance(value, str) or not _PATH_SAFE_RE.match(value):
        raise ProtocolError(
            "bad_request",
            f"{field} must be a short path-safe string "
            f"([A-Za-z0-9._-], starting alphanumeric), got {value!r}",
            request_id)
    return value


def normalize_submit(message: dict,
                     request_id: Optional[str] = None) -> dict:
    """Validate a ``submit`` message and return the normalized request
    record the service enqueues (and journals).

    The record is plain JSON data -- the ``exec`` object is validated by
    round-tripping through :meth:`ExecConfig.from_json` but *stored* as
    its dict form, so a journaled request replays across daemon restarts
    without pickling live objects.
    """
    kind = message.get("kind")
    if kind not in REQUEST_KINDS:
        raise ProtocolError(
            "bad_request",
            f"kind must be one of {list(REQUEST_KINDS)}, got {kind!r}",
            request_id)

    lane = message.get("lane", default_lane(kind))
    if lane not in LANES:
        raise ProtocolError(
            "bad_request",
            f"lane must be one of {list(LANES)}, got {lane!r}", request_id)

    namespace = _require_str(message, "namespace", "public", request_id)

    package = message.get("package")
    if not isinstance(package, dict) or \
            ("corpus" in package) == ("source" in package):
        raise ProtocolError(
            "bad_request",
            'package must be {"corpus": "aes"} or {"source": "<MiniAda>"}',
            request_id)
    if "corpus" in package:
        if package["corpus"] != "aes":
            raise ProtocolError(
                "bad_request",
                f'unknown corpus {package["corpus"]!r} (known: "aes")',
                request_id)
        package = {"corpus": "aes"}
    else:
        source = package["source"]
        if not isinstance(source, str) or not source.strip():
            raise ProtocolError("bad_request",
                                "package.source must be non-empty MiniAda "
                                "source text", request_id)
        package = {"source": source}
        if kind == "refactor":
            raise ProtocolError(
                "bad_request",
                "refactor requests need a named corpus chain "
                '(package {"corpus": "aes"})', request_id)

    subprograms = message.get("subprograms")
    if subprograms is not None:
        if not isinstance(subprograms, list) or not subprograms or \
                not all(isinstance(n, str) and n for n in subprograms):
            raise ProtocolError(
                "bad_request",
                "subprograms must be a non-empty list of names",
                request_id)

    scripts = message.get("scripts", True)
    if not isinstance(scripts, bool):
        raise ProtocolError("bad_request",
                            f"scripts must be a boolean, got {scripts!r}",
                            request_id)

    incremental = message.get("incremental", False)
    if not isinstance(incremental, bool):
        raise ProtocolError(
            "bad_request",
            f"incremental must be a boolean, got {incremental!r}",
            request_id)
    if incremental and kind != "prove":
        raise ProtocolError(
            "bad_request",
            f"incremental applies to prove requests only, not {kind!r}",
            request_id)

    exec_json = message.get("exec", {})
    try:
        ExecConfig.from_json(exec_json)   # validation only; stored as dict
    except (ValueError, TypeError) as exc:
        raise ProtocolError("bad_request", f"bad exec config: {exc}",
                            request_id)

    params = message.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("bad_request",
                            f"params must be an object, got {params!r}",
                            request_id)
    known_params = {"upto", "trials"}
    unknown = sorted(set(params) - known_params)
    if unknown:
        raise ProtocolError("bad_request",
                            f"unknown params keys: {unknown} "
                            f"(allowed: {sorted(known_params)})",
                            request_id)
    for name, lo, hi in (("upto", 0, 14), ("trials", 1, 10000)):
        if name in params:
            value = params[name]
            if not isinstance(value, int) or isinstance(value, bool) or \
                    not lo <= value <= hi:
                raise ProtocolError(
                    "bad_request",
                    f"params.{name} must be an integer in "
                    f"[{lo}, {hi}], got {value!r}", request_id)

    if "id" in message:
        request_id = _require_str(message, "id")

    return {
        "id": request_id,          # None → service assigns one
        "kind": kind,
        "lane": lane,
        "namespace": namespace,
        "package": package,
        "subprograms": subprograms,
        "scripts": scripts,
        "incremental": incremental,
        "exec": exec_json,
        "params": params,
    }
