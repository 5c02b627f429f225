"""Serve-daemon configuration (the validated form of the CLI flags)."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from ..exec.config import ExecConfig
from .protocol import LANES

__all__ = ["ServeConfig", "DEFAULT_LANES", "parse_lanes"]

#: Default per-lane concurrency: one interactive slot, one bulk slot.
DEFAULT_LANES: Dict[str, int] = {"interactive": 1, "bulk": 1}


def parse_lanes(spec: str) -> Dict[str, int]:
    """Parse a ``--lanes`` value like ``interactive=2,bulk=1``.

    Every entry must name a known lane (once) with an integer worker
    count; unmentioned lanes get 0 workers.  Only the syntax is checked
    here: the bounds (no negative count, at least one worker in total)
    are :class:`ServeConfig`'s.  Raises ``ValueError`` with a message
    naming the offending entry (the CLI maps this to a ``SystemExit``,
    the same discipline as ``--jobs 0``).
    """
    lanes = {lane: 0 for lane in LANES}
    seen = set()
    entries = [entry for entry in spec.split(",") if entry.strip()]
    if not entries:
        raise ValueError(f"empty lanes spec {spec!r} "
                         f"(expected e.g. 'interactive=1,bulk=1')")
    for entry in entries:
        name, sep, raw = entry.strip().partition("=")
        if not sep:
            raise ValueError(f"lanes entry {entry!r} is not NAME=COUNT")
        if name not in LANES:
            raise ValueError(f"unknown lane {name!r} "
                             f"(known: {', '.join(LANES)})")
        if name in seen:
            raise ValueError(f"lane {name!r} given twice")
        seen.add(name)
        try:
            count = int(raw)
        except ValueError:
            raise ValueError(f"lane {name!r} count must be an integer, "
                             f"got {raw!r}")
        lanes[name] = count
    return lanes


@dataclass
class ServeConfig:
    """How the daemon admits, persists, and executes requests.

    ``state_dir``       journal + per-tenant disk caches + result store;
                        None runs memory-only (no durability).
    ``lanes``           per-lane concurrent-request capacity; a lane with
                        0 capacity is admit-only (see ``--lanes``).
    ``max_queue``       pending-request bound per lane; admission beyond
                        it is rejected with a ``backpressure`` error.
    ``default_exec``    the :class:`~repro.exec.ExecConfig` applied to
                        requests that do not carry one.
    ``telemetry_out``   where request/lane metrics are dumped (atomic
                        JSON, same schema as the harness's
                        ``results/telemetry.json``); None disables.
    """

    state_dir: Optional[Path] = None
    lanes: Dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_LANES))
    max_queue: int = 64
    default_exec: ExecConfig = field(default_factory=ExecConfig)
    telemetry_out: Optional[Path] = None

    def __post_init__(self):
        if self.state_dir is not None:
            self.state_dir = Path(self.state_dir)
        if self.telemetry_out is not None:
            self.telemetry_out = Path(self.telemetry_out)
        unknown = sorted(set(self.lanes) - set(LANES))
        if unknown:
            raise ValueError(f"unknown lanes: {unknown} "
                             f"(known: {list(LANES)})")
        lanes = {lane: self.lanes.get(lane, 0) for lane in LANES}
        for lane, count in lanes.items():
            if not isinstance(count, int) or isinstance(count, bool) \
                    or count < 0:
                raise ValueError(f"lane {lane!r} capacity must be a "
                                 f"non-negative int, got {count!r}")
        if sum(lanes.values()) < 1:
            raise ValueError("at least one lane needs capacity >= 1 "
                             "(a daemon with zero workers serves nothing)")
        self.lanes = lanes
        if not isinstance(self.max_queue, int) \
                or isinstance(self.max_queue, bool) or self.max_queue < 1:
            # The same loud-failure stance as --jobs 0: a typo'd bound of
            # 0 would reject every submit as backpressure.
            raise ValueError(f"max_queue must be >= 1, "
                             f"got {self.max_queue!r}")
        if not isinstance(self.default_exec, ExecConfig):
            raise TypeError(f"default_exec must be an ExecConfig, got "
                            f"{type(self.default_exec).__name__}")
