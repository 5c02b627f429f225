"""Resource model for the examiner.

The paper's SPARK tools materialized verification conditions as FDL text
and *ran out of resources* (memory) on the un-refactored AES -- figure 2(c)
shows no value at blocks 0 and 2-7 for exactly this reason.  Our terms are
DAGs, so we never die; instead a :class:`ResourceMeter` tracks the tree
size the real tools would have materialized and raises
:class:`ResourceExhausted` when it crosses the configured budget, which the
examiner reports as an infeasible analysis.

Analysis "time" is reported two ways:

* ``work_units`` -- deterministic: tree bytes generated plus simplifier
  rewrite work (stable across machines; what the benchmarks assert on);
* measured wall seconds (informational).

``simulated_seconds`` converts work units with a fixed rate calibrated so
the fully refactored AES lands in the order of the paper's 1m42s; only the
*shape* across blocks is meaningful, as DESIGN.md discusses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..logic.measure import tree_bytes

__all__ = ["ResourceExhausted", "ResourceMeter", "ExaminerLimits",
           "simulated_seconds", "WORK_UNITS_PER_SECOND"]

#: Conversion between deterministic work units and simulated seconds.
#: Calibrated once against the final refactored AES (see EXPERIMENTS.md).
WORK_UNITS_PER_SECOND = 20_000

#: Default tree-byte budget, standing in for the SPARK tools' memory on the
#: paper's 2.0 GHz machine.  Chosen so the un-refactored AES exceeds it while
#: the loop-rerolled version (block 1) squeaks through slowly -- the shape of
#: figure 2(c).
DEFAULT_MAX_TREE_BYTES = 600 * 1024 * 1024


class ResourceExhausted(Exception):
    """The analysis exceeded its (tree-materialization) resource budget."""


@dataclass
class ExaminerLimits:
    max_tree_bytes: int = DEFAULT_MAX_TREE_BYTES
    #: Separate, larger cap guarding our own CPU during generation.
    max_wp_statements: int = 200_000


class ResourceMeter:
    """Tracks the materialized-tree cost of obligations during WP."""

    def __init__(self, limits: Optional[ExaminerLimits] = None):
        self.limits = limits or ExaminerLimits()
        self._tree_cache: Dict[int, int] = {}
        self.peak_tree_bytes = 0
        self.statements = 0

    def measure(self, obligations) -> int:
        total = 0
        for o in obligations:
            total += tree_bytes(o.term, self._tree_cache)
        return total

    def charge(self, obligations):
        self.statements += 1
        total = self.measure(obligations)
        if total > self.peak_tree_bytes:
            self.peak_tree_bytes = total
        if (self.limits.max_tree_bytes is not None
                and total > self.limits.max_tree_bytes):
            raise ResourceExhausted(
                f"obligation tree size {total} bytes exceeds budget "
                f"{self.limits.max_tree_bytes}")
        if self.statements > self.limits.max_wp_statements:
            raise ResourceExhausted("statement budget exceeded")


def simulated_seconds(work_units: int) -> float:
    return work_units / WORK_UNITS_PER_SECOND
