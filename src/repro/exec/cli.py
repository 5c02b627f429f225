"""One command-line flag set for :class:`~repro.exec.ExecConfig`.

The harness runner, the planner and the serve daemon all take the same
execution flags::

    parser = argparse.ArgumentParser(allow_abbrev=False)
    add_exec_arguments(parser)
    args = parser.parse_args(argv)
    config = exec_config(parser, args)

The parser only converts types.  Every bound is checked once, by
``ExecConfig`` and :class:`~repro.exec.RetryPolicy`; their ``ValueError``
becomes a usage error (exit status 2) that names the bad value.  A flag
left out leaves the field at its ``ExecConfig`` default.
"""

from __future__ import annotations

import argparse

from .config import ExecConfig
from .retry import RetryPolicy
from .scheduler import BACKENDS

__all__ = ["add_exec_arguments", "exec_config"]

#: Destinations that map one-to-one onto ``ExecConfig`` fields.
_FIELDS = ("jobs", "backend", "timeout_seconds", "on_backend_failure",
           "remote_workers", "remote_listen", "lease_timeout_seconds",
           "remote_shared_cache", "batch_size", "batch_bytes_cap")


def add_exec_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the execution flags to ``parser``."""
    group = parser.add_argument_group("execution")
    add = group.add_argument
    add("--jobs", type=int, metavar="N", help="worker count (default 1)")
    add("--backend", choices=BACKENDS, help="default serial")
    add("--timeout", dest="timeout_seconds", type=float, metavar="S",
        help="per-obligation wall bound")
    add("--retries", type=int, metavar="N",
        help="re-runs granted to a failing obligation")
    add("--max-retry-delay", type=float, metavar="S",
        help="cap on one retry backoff")
    add("--on-backend-failure", metavar="{raise,degrade}",
        help="on an unusable backend: abort (the default) or fall back")
    add("--remote-worker", dest="remote_workers", action="append",
        metavar="HOST:PORT", help="a listening farm worker (repeatable)")
    add("--remote-listen", metavar="[HOST]:PORT",
        help="bind for dial-in farm workers")
    add("--lease-timeout", dest="lease_timeout_seconds", type=float,
        metavar="S", help="bound on one remote obligation lease")
    add("--no-remote-shared-cache", dest="remote_shared_cache",
        action="store_false", default=None,
        help="farm workers do not read through to this result cache")
    add("--batch-size", type=int, metavar="N",
        help="obligations per dispatch unit (1 disables batching)")
    add("--batch-bytes-cap", type=int, metavar="BYTES",
        help="estimated bytes of one batch")


def exec_config(parser: argparse.ArgumentParser,
                args: argparse.Namespace) -> ExecConfig:
    """The ``ExecConfig`` the parsed flags describe; an out-of-bounds
    value exits through ``parser.error``."""
    fields = {name: getattr(args, name) for name in _FIELDS
              if getattr(args, name) is not None}
    policy = {}
    if args.retries is not None:
        policy["retries"] = args.retries
    if args.max_retry_delay is not None:
        policy["max_delay"] = args.max_retry_delay
    try:
        if policy:
            fields["retries"] = RetryPolicy(**policy)
        return ExecConfig(**fields)
    except ValueError as exc:
        parser.error(str(exc))
