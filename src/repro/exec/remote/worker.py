"""The proof-farm worker: ``python -m repro.exec.remote.worker``.

One worker process serves one coordinator connection at a time.  Every
lease carries the arguments of
:func:`repro.exec.scheduler._batch_worker`, the function a local pool
worker runs -- one dispatch unit's ``(index, payload, token)`` entries
(a solo obligation is a unit of one), the retry policy and the timeout
-- so each payload's discharge function, the SIGALRM hard timeout, the
retry policy with deterministic jitter, and the result-tuple shape are
all identical to the process backend.  The worker keeps no result
cache: the parent's :class:`~repro.exec.cache.ResultCache` settles every
hit before a lease is sent.  Two connection modes::

    python -m repro.exec.remote.worker --connect HOST:PORT   # dial in
    python -m repro.exec.remote.worker --listen  [HOST:]PORT # be dialed

``--listen`` prints ``{"listening": "host:port"}`` on stdout once bound
(port 0 resolves to an ephemeral port) and keeps serving connections --
a persistent farm worker.  ``--connect`` retries the dial for
:data:`DIAL_TIMEOUT` seconds and exits when the connection ends (a
supervisor or test respawns it); a rejected handshake (version mismatch,
quarantined name) exits with status :data:`REJECTED_EXIT`.
"""

from __future__ import annotations

import argparse
import os
import socket
import subprocess
import sys
import time
from typing import Optional, Tuple

from ...protocol import PROTOCOL_VERSION, ProtocolError, \
    check_protocol_version
from ..scheduler import _batch_worker
from .link import Link, decode_blob, encode_blob, parse_address

__all__ = ["main", "spawn_worker", "REJECTED_EXIT"]

#: Exit status when the coordinator rejects the handshake.
REJECTED_EXIT = 3

#: Seconds ``--connect`` keeps retrying to reach the coordinator.
DIAL_TIMEOUT = 30.0


def _log(message: str) -> None:
    print(f"[farm-worker] {message}", file=sys.stderr, flush=True)


def _serve_connection(sock: socket.socket, name: str) -> bool:
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
        while True:
            message = link.recv()
            if message is None or message.get("op") == "bye":
                return True
            if message.get("op") == "lease":
                lease_id = message.get("lease")
                link.send({"reply": "ack", "lease": lease_id})
                results = _batch_worker(*decode_blob(message["blob"]))
                link.send({"reply": "result", "lease": lease_id,
                           "blob": encode_blob(results)})
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
    args = parser.parse_args(argv)
    name = args.name or f"{socket.gethostname()}-{os.getpid()}"

    if args.connect is not None:
        address = parse_address(args.connect)
        deadline = time.monotonic() + DIAL_TIMEOUT
        while True:
            try:
                sock = socket.create_connection(address, timeout=5.0)
                break
            except OSError:
                if time.monotonic() >= deadline:
                    _log(f"could not reach coordinator at "
                         f"{args.connect} within {DIAL_TIMEOUT}s")
                    return 1
                time.sleep(0.1)
        return 0 if _serve_connection(sock, name) else REJECTED_EXIT

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
        if not _serve_connection(sock, name):
            return REJECTED_EXIT


def spawn_worker(*, connect: Optional[str] = None,
                 listen: Optional[str] = None, name: Optional[str] = None,
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
    command = [sys.executable, "-m", "repro.exec.remote.worker"]
    if (connect is None) == (listen is None):
        raise ValueError("pass exactly one of connect= or listen=")
    if connect is not None:
        command += ["--connect", connect]
    else:
        command += ["--listen", listen]
    if name is not None:
        command += ["--name", name]
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
