"""The proof-farm worker: ``python -m repro.exec.remote.worker``.

One worker process serves one coordinator connection at a time,
executing leased obligations with *exactly* the process backend's
semantics -- it runs :func:`repro.exec.scheduler._process_worker`
verbatim, so the SIGALRM hard timeout, the retry policy with
deterministic jitter, and the result-tuple shape are all identical to a
local pool worker.  Two connection modes::

    python -m repro.exec.remote.worker --connect HOST:PORT   # dial in
    python -m repro.exec.remote.worker --listen  [HOST:]PORT # be dialed

``--listen`` prints ``{"listening": "host:port"}`` on stdout once bound
(port 0 resolves to an ephemeral port) and keeps serving connections --
a persistent farm worker whose local result cache stays warm across
runs.  ``--connect`` exits when the connection ends (a supervisor or
test respawns it); a rejected handshake (version mismatch, quarantined
name) exits with status :data:`REJECTED_EXIT`.

Per lease, the worker answers from three tiers, cheapest first:

1. **local** -- its own in-process cache of wire-form results, warm
   across connections (and across runs, in ``--listen`` mode);
2. **tier** -- a ``cache_get`` read-through to the coordinator's
   content-addressed cache (when the coordinator enabled the shared
   tier), so any other worker's verdict is this worker's warm hit;
3. **computed** -- :func:`_process_worker` on the shipped payload.

The served tier travels back on the ``result`` message, so telemetry
can attribute farm-level cache behaviour.

Batched leases (protocol version 3): a ``lease_batch`` ships many small
obligations in one message; the worker absorbs the hoisted warm-norm
caches once, answers each member from its local tier or computes it,
and replies with one ``result_batch``.  See :func:`_handle_lease_batch`
for why the coordinator ``cache_get`` tier is skipped inside a batch.
"""

from __future__ import annotations

import argparse
import os
import socket
import subprocess
import sys
import time
from collections import deque
from typing import Dict, Optional, Tuple

from ...protocol import PROTOCOL_VERSION, ProtocolError, \
    check_protocol_version
from ..scheduler import _process_worker
from .link import Link, decode_blob, encode_blob, parse_address

__all__ = ["main", "spawn_worker", "REJECTED_EXIT"]

#: Exit status when the coordinator rejects the handshake.
REJECTED_EXIT = 3


def _log(message: str) -> None:
    print(f"[farm-worker] {message}", file=sys.stderr, flush=True)


def _await_cache_value(link: Link, pending: deque,
                       lease_id: str) -> Optional[dict]:
    """Block until the ``cache_value`` reply for ``lease_id``; other
    messages (further leases) queue in ``pending``.  ``None`` when the
    connection dies first -- the caller falls back to computing."""
    while True:
        try:
            message = link.recv()
        except (ProtocolError, OSError):
            return None
        if message is None:
            return None
        if message.get("reply") == "cache_value" \
                and message.get("lease") == lease_id:
            return message
        pending.append(message)


def _answer(index: int, payload, retry_policy, timeout, token: str,
            key: Optional[str], local_cache: Dict[str, object]) -> tuple:
    """``(result, served)`` for one obligation: the worker's local tier,
    else :func:`_process_worker` (whose verdict then warms the tier)."""
    if key is not None and key in local_cache:
        return (index, "ok", local_cache[key], 0.0, 1, (), None), "local"
    result = _process_worker(index, payload, retry_policy, timeout, token)
    if key is not None and result[1] == "ok":
        local_cache[key] = result[2]
    return result, "computed"


def _handle_lease(link: Link, message: dict, shared_cache: bool,
                  local_cache: Dict[str, object],
                  pending: deque) -> None:
    lease_id = message.get("lease")
    index = message.get("index")
    key = message.get("key")
    link.send({"reply": "ack", "lease": lease_id})
    result = None
    if key is not None and shared_cache and key not in local_cache:
        link.send({"op": "cache_get", "lease": lease_id, "key": key})
        value = _await_cache_value(link, pending, lease_id)
        if value is not None and value.get("hit"):
            wire = decode_blob(value["wire"])
            local_cache[key] = wire
            result, served = (index, "ok", wire, 0.0, 1, (), None), "tier"
    if result is None:
        payload, retry_policy = decode_blob(message["blob"])
        result, served = _answer(index, payload, retry_policy,
                                 message.get("timeout"),
                                 message.get("token", ""), key, local_cache)
    link.send({"reply": "result", "lease": lease_id, "index": index,
               "served": served, "blob": encode_blob(result)})


def _handle_lease_batch(link: Link, message: dict,
                        local_cache: Dict[str, object]) -> None:
    """Execute one :class:`~repro.exec.payload.BatchPayload` lease
    (protocol version 3): absorb the hoisted warm-norm caches exactly
    once, then run every member through the same per-item machinery as a
    solo lease.  The coordinator ``cache_get`` tier is deliberately *not*
    consulted per member -- a per-item read-through round trip would
    reintroduce exactly the per-obligation wire latency batching exists
    to amortize; the worker's own local cache (warm across leases) still
    answers repeats, and the coordinator's write-through keeps the shared
    tier warm for later solo leases."""
    from ..payload import _absorb_warm

    lease_id = message.get("lease")
    link.send({"reply": "ack", "lease": lease_id})
    batch, retry_policy = decode_blob(message["blob"])
    for warm_key, warm_norms in batch.warm:
        _absorb_warm(warm_key, warm_norms)
    answers = [_answer(index, payload, retry_policy, message.get("timeout"),
                       token, key, local_cache)
               for index, payload, token, key in batch.entries]
    link.send({"reply": "result_batch", "lease": lease_id,
               "served": [served for _, served in answers],
               "blob": encode_blob(tuple(result for result, _ in answers))})


def _serve_connection(sock: socket.socket, name: str,
                      local_cache: Dict[str, object]) -> bool:
    """Handshake and serve leases until the stream ends.  Returns False
    when the coordinator rejected us (do not reconnect)."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    link = Link(sock)
    try:
        link.send({"op": "hello", "protocol": PROTOCOL_VERSION,
                   "name": name, "pid": os.getpid()})
        reply = link.recv(timeout=30.0)
        if reply is None:
            return True
        if reply.get("reply") == "error":
            _log(f"rejected by coordinator: {reply.get('code')}: "
                 f"{reply.get('detail')}")
            return False
        if reply.get("reply") != "welcome":
            _log(f"unexpected handshake reply: {reply!r}")
            return False
        check_protocol_version(reply.get("protocol"),
                               surface="farm-worker", required=True)
        shared_cache = bool(reply.get("shared_cache"))
        pending: deque = deque()
        while True:
            message = pending.popleft() if pending else link.recv()
            if message is None or message.get("op") == "bye":
                return True
            if message.get("op") == "lease":
                _handle_lease(link, message, shared_cache, local_cache,
                              pending)
            elif message.get("op") == "lease_batch":
                _handle_lease_batch(link, message, local_cache)
            # Anything else: ignore (forward compatibility).
    except ProtocolError as exc:
        if exc.code == "protocol_mismatch":
            _log(str(exc))
            return False
        _log(f"protocol error: {exc}")
        return True
    except (OSError, socket.timeout) as exc:
        _log(f"connection lost: {exc}")
        return True
    finally:
        link.close()


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec.remote.worker",
        description="Proof-farm worker process (DESIGN.md §16).",
        allow_abbrev=False)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--connect", metavar="HOST:PORT",
                      help="dial a coordinator (exit when the "
                           "connection ends)")
    mode.add_argument("--listen", metavar="[HOST:]PORT",
                      help="bind and serve coordinator dial-ins; prints "
                           "the bound address as JSON on stdout")
    parser.add_argument("--name", default=None,
                        help="worker identity for the coordinator's "
                             "registry/quarantine (default: host-pid)")
    parser.add_argument("--once", action="store_true",
                        help="serve a single connection, then exit")
    parser.add_argument("--dial-timeout", type=float, default=30.0,
                        help="seconds to keep retrying --connect "
                             "(default 30)")
    args = parser.parse_args(argv)
    name = args.name or f"{socket.gethostname()}-{os.getpid()}"
    local_cache: Dict[str, object] = {}

    if args.connect is not None:
        address = parse_address(args.connect)
        deadline = time.monotonic() + args.dial_timeout
        while True:
            try:
                sock = socket.create_connection(address, timeout=5.0)
            except OSError:
                if time.monotonic() >= deadline:
                    _log(f"could not reach coordinator at "
                         f"{args.connect} within {args.dial_timeout}s")
                    return 1
                time.sleep(0.1)
                continue
            accepted = _serve_connection(sock, name, local_cache)
            return 0 if accepted else REJECTED_EXIT

    listen = args.listen if ":" in args.listen else f":{args.listen}"
    host, port = parse_address(listen)
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind((host, port))
    server.listen(4)
    bound = server.getsockname()
    print(f'{{"listening": "{bound[0]}:{bound[1]}"}}', flush=True)
    while True:
        try:
            sock, _ = server.accept()
        except OSError:
            return 0
        accepted = _serve_connection(sock, name, local_cache)
        if not accepted:
            return REJECTED_EXIT
        if args.once:
            return 0


def spawn_worker(*, connect: Optional[str] = None,
                 listen: Optional[str] = None, name: Optional[str] = None,
                 once: bool = False, python: Optional[str] = None,
                 pythonpath_extra: Tuple[str, ...] = ()
                 ) -> Tuple[subprocess.Popen, Optional[str]]:
    """Launch a worker subprocess (the helper tests, benchmarks and the
    CI farm smoke step use).  Returns ``(process, address)`` -- the
    address is the worker's bound ``"host:port"`` in ``--listen`` mode
    (read from its stdout), ``None`` in ``--connect`` mode.

    ``pythonpath_extra`` prepends entries to the worker's ``PYTHONPATH``
    beyond the ``repro`` source dir -- tests add their repo root so
    ``tests.*`` payload functions unpickle worker-side.
    """
    import json

    src_dir = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    env = dict(os.environ)
    parts = [*pythonpath_extra, src_dir]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    command = [python or sys.executable, "-m", "repro.exec.remote.worker"]
    if (connect is None) == (listen is None):
        raise ValueError("pass exactly one of connect= or listen=")
    if connect is not None:
        command += ["--connect", connect]
    else:
        command += ["--listen", listen]
    if name is not None:
        command += ["--name", name]
    if once:
        command += ["--once"]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, env=env)
    address = None
    if listen is not None:
        line = process.stdout.readline()
        try:
            address = json.loads(line)["listening"]
        except (ValueError, KeyError, TypeError):
            process.kill()
            process.wait()
            raise RuntimeError(
                f"worker did not report a listen address "
                f"(got {line!r})")
    return process, address


if __name__ == "__main__":
    sys.exit(main())
