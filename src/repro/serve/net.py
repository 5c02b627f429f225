"""The transport: line-delimited JSON over stdio.

The daemon serves one client, one bidirectional stream of
newline-terminated JSON objects (the wire format of
:mod:`repro.serve.protocol`) on stdin/stdout.  Replies go through an
*outbox* queue; exactly one writer task drains it to stdout, so
concurrent request streams never interleave mid-line.  The read loop
dispatches operations:

``submit``    admit a request; replies ``accepted`` (or ``error``), then
              streams the request's ``event`` messages and its terminal
              ``result``.
``wait``      reply with the ``result`` of an id once it exists (runs as
              its own task so a long wait never blocks further reads).
``status``    lane/cache/queue snapshot.
``ping``      liveness (echoes ``payload``).
``shutdown``  ask the daemon to exit (graceful: running work drains).

The thin client (:mod:`repro.serve.client`) runs the daemon as its
subprocess.  stdin is read on a helper thread (asyncio has no portable
non-blocking stdin) and bridged into the loop.
"""

from __future__ import annotations

import asyncio
import os
import sys
import threading

from .protocol import ProtocolError, decode_line, encode_message
from .service import VerificationService

__all__ = ["serve_stdio", "handle_message"]


async def handle_message(service: VerificationService, message: dict,
                         outbox: asyncio.Queue) -> None:
    """Dispatch one decoded client message; replies go to ``outbox``."""
    op = message["op"]
    try:
        if op == "ping":
            outbox.put_nowait({"reply": "pong",
                               "payload": message.get("payload")})
        elif op == "status":
            outbox.put_nowait(service.status())
        elif op == "submit":
            outbox.put_nowait(await service.submit(message, outbox))
        elif op == "wait":
            request_id = message.get("id")
            if not isinstance(request_id, str):
                raise ProtocolError("bad_request",
                                    "wait needs a string 'id'")

            async def _waiter(rid=request_id):
                try:
                    outbox.put_nowait(await service.wait(rid))
                except ProtocolError as exc:
                    outbox.put_nowait(exc.to_message())

            asyncio.ensure_future(_waiter())
        elif op == "shutdown":
            outbox.put_nowait({"reply": "bye"})
            service.request_shutdown()
    except ProtocolError as exc:
        outbox.put_nowait(exc.to_message())


async def _read_dispatch(service: VerificationService, readline,
                         outbox: asyncio.Queue) -> None:
    """The read loop: decode, dispatch, keep going.  Malformed lines
    produce an ``error`` reply instead of killing the connection."""
    while True:
        line = await readline()
        if not line:
            return
        if not line.strip():
            continue
        try:
            message = decode_line(line)
        except ProtocolError as exc:
            outbox.put_nowait(exc.to_message())
            continue
        await handle_message(service, message, outbox)


async def _drain_outbox(outbox: asyncio.Queue, write) -> None:
    """The writer: the sole producer of output bytes."""
    while True:
        message = await outbox.get()
        if message is None:
            return
        await write(encode_message(message).encode("utf-8"))


async def serve_stdio(service: VerificationService,
                      stdin=None, stdout=None) -> None:
    """Serve one client over stdin/stdout until EOF or ``shutdown``."""
    stdin = stdin if stdin is not None else sys.stdin.buffer
    stdout = stdout if stdout is not None else sys.stdout.buffer
    loop = asyncio.get_running_loop()
    lines: asyncio.Queue = asyncio.Queue()

    def pump() -> None:
        # Blocking stdin reads belong on a thread; EOF posts a sentinel.
        # Read the raw fd, not the BufferedReader: a daemon thread parked
        # inside a buffered read holds the buffer lock, and interpreter
        # shutdown aborts the whole process on it (_enter_buffered_busy).
        try:
            fd = stdin.fileno()
        except (AttributeError, OSError):
            fd = None
        buffer = b""
        while True:
            try:
                chunk = os.read(fd, 65536) if fd is not None \
                    else stdin.readline()
            except (OSError, ValueError):
                break
            if not chunk:
                break
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                loop.call_soon_threadsafe(lines.put_nowait, line + b"\n")
        if buffer:
            loop.call_soon_threadsafe(lines.put_nowait, buffer)
        loop.call_soon_threadsafe(lines.put_nowait, b"")

    reader = threading.Thread(target=pump, name="serve-stdin", daemon=True)
    reader.start()

    async def readline() -> bytes:
        return await lines.get()

    async def write(data: bytes) -> None:
        stdout.write(data)
        stdout.flush()

    outbox: asyncio.Queue = asyncio.Queue()
    drain = asyncio.ensure_future(_drain_outbox(outbox, write))

    async def read_loop() -> None:
        await _read_dispatch(service, readline, outbox)
        service.request_shutdown()

    reading = asyncio.ensure_future(read_loop())
    await service.shutdown_requested.wait()
    reading.cancel()
    outbox.put_nowait(None)
    await drain
