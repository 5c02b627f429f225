"""Command line for the verification daemon.

Run as::

    python -m repro.serve --stdio --state-dir state/
    python -m repro.serve --port 0 --state-dir state/ \\
        --lanes interactive=2,bulk=1 --max-queue 32

Flags (every validation failure is a loud ``SystemExit`` naming the bad
value -- the same stance as the harness's ``--jobs 0`` rejection):

``--stdio``             serve one client over stdin/stdout (default when
                        no ``--port`` is given).
``--host`` / ``--port`` serve TCP; ``--port 0`` binds an ephemeral port,
                        announced as a ``listening`` line on stdout.
``--state-dir DIR``     durable mode: journal, result store, per-tenant
                        disk caches live here.  Omit for memory-only.
``--lanes SPEC``        per-lane worker counts, e.g. ``interactive=2,bulk=1``
                        (a lane at 0 is admit-only; total must be >= 1).
``--max-queue N``       pending-depth bound per lane (N >= 1); beyond it
                        submits are rejected with ``backpressure``.
``--telemetry-out F``   dump request/lane metrics to F (atomic JSON).
``--jobs`` / ``--backend`` / ``--timeout``
                        the server-side default :class:`ExecConfig` for
                        requests that do not carry their own ``exec``.
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path
from typing import Optional

from ..exec.config import ExecConfig
from ..exec.scheduler import BACKENDS
from .config import DEFAULT_LANES, ServeConfig, parse_lanes
from .net import serve_stdio, serve_tcp
from .service import VerificationService

__all__ = ["main", "build_config"]


def _flag_value(argv, flag: str) -> Optional[str]:
    raw = None
    for i, arg in enumerate(argv):
        if arg == flag and i + 1 < len(argv):
            raw = argv[i + 1]
        elif arg.startswith(flag + "="):
            raw = arg.split("=", 1)[1]
    return raw


def _parse_lanes_flag(argv) -> dict:
    raw = _flag_value(argv, "--lanes")
    if raw is None:
        return dict(DEFAULT_LANES)
    try:
        return parse_lanes(raw)
    except ValueError as exc:
        raise SystemExit(f"error: --lanes: {exc}")


def _parse_max_queue(argv) -> int:
    raw = _flag_value(argv, "--max-queue")
    if raw is None:
        return 64
    try:
        value = int(raw)
    except ValueError:
        raise SystemExit(f"error: --max-queue expects an integer, "
                         f"got {raw!r}")
    if value < 1:
        # Same loud-failure stance as --jobs 0: a bound of 0 would
        # reject every submit as backpressure.
        raise SystemExit(f"error: --max-queue must be >= 1, got {raw!r}")
    return value


def _parse_port(argv) -> Optional[int]:
    raw = _flag_value(argv, "--port")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise SystemExit(f"error: --port expects an integer, got {raw!r}")
    if not 0 <= value <= 65535:
        raise SystemExit(f"error: --port must be in [0, 65535], "
                         f"got {raw!r}")
    return value


def _parse_default_exec(argv) -> ExecConfig:
    jobs_raw = _flag_value(argv, "--jobs")
    jobs = 1
    if jobs_raw is not None:
        try:
            jobs = int(jobs_raw)
        except ValueError:
            raise SystemExit(f"error: --jobs expects an integer, "
                             f"got {jobs_raw!r}")
        if jobs < 1:
            raise SystemExit(f"error: --jobs must be >= 1, got {jobs_raw!r}")
    backend = _flag_value(argv, "--backend") or "serial"
    if backend not in BACKENDS:
        raise SystemExit(f"error: --backend expects one of "
                         f"{', '.join(sorted(BACKENDS))}, got {backend!r}")
    timeout_raw = _flag_value(argv, "--timeout")
    timeout = None
    if timeout_raw is not None:
        try:
            timeout = float(timeout_raw)
        except ValueError:
            raise SystemExit(f"error: --timeout expects seconds, "
                             f"got {timeout_raw!r}")
        if timeout <= 0:
            raise SystemExit(f"error: --timeout must be positive, "
                             f"got {timeout_raw!r}")
    return ExecConfig(jobs=jobs, backend=backend, timeout_seconds=timeout)


def build_config(argv) -> ServeConfig:
    """The validated :class:`ServeConfig` for ``argv`` (exposed for the
    flag-validation unit tests)."""
    state_dir = _flag_value(argv, "--state-dir")
    telemetry_out = _flag_value(argv, "--telemetry-out")
    return ServeConfig(
        state_dir=Path(state_dir) if state_dir else None,
        lanes=_parse_lanes_flag(argv),
        max_queue=_parse_max_queue(argv),
        default_exec=_parse_default_exec(argv),
        telemetry_out=Path(telemetry_out) if telemetry_out else None,
    )


async def _run(config: ServeConfig, argv) -> int:
    service = VerificationService(config)
    replayed = await service.start()
    if replayed:
        sys.stderr.write(f"repro.serve: replayed {replayed} journaled "
                         f"request(s)\n")
    port = _parse_port(argv)
    try:
        if port is not None:
            await serve_tcp(service, _flag_value(argv, "--host")
                            or "127.0.0.1", port)
        else:
            await serve_stdio(service)
    finally:
        await service.stop()
    return 0


def main(argv=None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    config = build_config(argv)
    if _parse_port(argv) is None and "--stdio" not in argv \
            and not any(a.startswith("--port") for a in argv):
        sys.stderr.write("repro.serve: no --port given; "
                         "serving stdio (pass --stdio to silence this)\n")
    return asyncio.run(_run(config, argv))


if __name__ == "__main__":
    raise SystemExit(main())
