"""Command line for the verification daemon.

Run as::

    python -m repro.serve --state-dir state/ \\
        --lanes interactive=2,bulk=1 --max-queue 32

The daemon serves one client over stdin/stdout.  The execution flags
(:mod:`repro.exec.cli`, the harness's set) build the server-side default
:class:`~repro.exec.ExecConfig` for requests that do not carry their own
``exec``.  Every bad value is a
usage error (exit status 2) naming it; the bounds are
:class:`~repro.serve.config.ServeConfig`'s and ``ExecConfig``'s own.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from ..exec.cli import add_exec_arguments, exec_config
from .config import ServeConfig, parse_lanes
from .net import serve_stdio
from .service import VerificationService

__all__ = ["main", "build_config"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", allow_abbrev=False,
        description="The verification daemon (one client on "
                    "stdin/stdout).")
    add = parser.add_argument
    add("--state-dir", metavar="DIR", help="durable state (omit: memory)")
    add("--lanes", metavar="SPEC",
        help="per-lane workers, e.g. interactive=2,bulk=1")
    add("--max-queue", type=int, metavar="N",
        help="pending-depth bound per lane (default 64)")
    add("--telemetry-out", metavar="FILE", help="request/lane metrics")
    add_exec_arguments(parser)
    return parser


def build_config(argv) -> ServeConfig:
    """The validated :class:`ServeConfig` for ``argv``; a bad value is a
    usage error."""
    parser = _parser()
    args = parser.parse_args(argv)
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


async def _run(config: ServeConfig) -> int:
    service = VerificationService(config)
    replayed = await service.start()
    if replayed:
        sys.stderr.write(f"repro.serve: replayed {replayed} journaled "
                         f"request(s)\n")
    try:
        await serve_stdio(service)
    finally:
        await service.stop()
    return 0


def main(argv=None) -> int:
    return asyncio.run(_run(build_config(argv)))


if __name__ == "__main__":
    raise SystemExit(main())
