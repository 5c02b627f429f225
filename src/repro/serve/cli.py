"""Command line for the verification daemon.

Run as::

    python -m repro.serve --stdio --state-dir state/
    python -m repro.serve --port 0 --state-dir state/ \\
        --lanes interactive=2,bulk=1 --max-queue 32

``--port 0`` binds an ephemeral port, announced as a ``listening`` line
on stdout; with no ``--port`` the daemon serves one client over
stdin/stdout.  The execution flags (:mod:`repro.exec.cli`, the harness's
set) build the server-side default :class:`~repro.exec.ExecConfig` for
requests that do not carry their own ``exec``.  Every bad value is a
usage error (exit status 2) naming it; the bounds are
:class:`~repro.serve.config.ServeConfig`'s and ``ExecConfig``'s own.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Optional

from ..exec.cli import add_exec_arguments, exec_config
from .config import ServeConfig, parse_lanes
from .net import serve_stdio, serve_tcp
from .service import VerificationService

__all__ = ["main", "build_config"]


def _parser() -> argparse.ArgumentParser:
    def port(text: str) -> int:   # argparse names the type in errors
        value = int(text)
        if not 0 <= value <= 65535:
            raise argparse.ArgumentTypeError(
                f"port must be in [0, 65535], got {value}")
        return value

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", allow_abbrev=False,
        description="The verification daemon.")
    add = parser.add_argument
    add("--stdio", action="store_true",
        help="serve one client on stdin/stdout (the default)")
    add("--host", default="127.0.0.1", help="TCP bind host")
    add("--port", type=port, help="serve TCP (0: an ephemeral port)")
    add("--state-dir", metavar="DIR", help="durable state (omit: memory)")
    add("--lanes", metavar="SPEC",
        help="per-lane workers, e.g. interactive=2,bulk=1")
    add("--max-queue", type=int, metavar="N",
        help="pending-depth bound per lane (default 64)")
    add("--telemetry-out", metavar="FILE", help="request/lane metrics")
    add_exec_arguments(parser)
    return parser


def _serve_config(parser: argparse.ArgumentParser,
                  args: argparse.Namespace) -> ServeConfig:
    fields = {"default_exec": exec_config(parser, args)}
    for name in ("state_dir", "max_queue", "telemetry_out"):
        if getattr(args, name) is not None:
            fields[name] = getattr(args, name)
    try:
        if args.lanes is not None:
            fields["lanes"] = parse_lanes(args.lanes)
        return ServeConfig(**fields)
    except ValueError as exc:
        parser.error(str(exc))


def build_config(argv) -> ServeConfig:
    """The validated :class:`ServeConfig` for ``argv`` (exposed for the
    flag-validation unit tests)."""
    parser = _parser()
    return _serve_config(parser, parser.parse_args(argv))


async def _run(config: ServeConfig, host: str, port: Optional[int]) -> int:
    service = VerificationService(config)
    replayed = await service.start()
    if replayed:
        sys.stderr.write(f"repro.serve: replayed {replayed} journaled "
                         f"request(s)\n")
    try:
        if port is not None:
            await serve_tcp(service, host, port)
        else:
            await serve_stdio(service)
    finally:
        await service.stop()
    return 0


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    config = _serve_config(parser, args)
    if args.port is None and not args.stdio:
        sys.stderr.write("repro.serve: no --port given; "
                         "serving stdio (pass --stdio to silence this)\n")
    return asyncio.run(_run(config, args.host, args.port))


if __name__ == "__main__":
    raise SystemExit(main())
