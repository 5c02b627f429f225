"""Figure 2 harness: per-block metric measurements.

Reproduces the measurement protocol of paper section 6.2.2: after each
transformation block, postconditions are set to true, VCs are generated
with the SPARK-substitute examiner under its resource budget, simplified,
and the element/complexity/VC/structure metrics are recorded.  The six
panels of figure 2 are columns of the resulting table:

(a) lines of code            (b) average McCabe cyclomatic complexity
(c) analysis time            (d) size of generated VCs
(e) size of simplified VCs   (f) specification structure match ratio
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional

from ..aes.blocks import AESPipeline, BlockResult
from ..aes.fips197 import fips197_theory
from ..extract import extract_skeleton, match_ratio
from ..lang import with_true_postconditions, analyze
from ..metrics import complexity_metrics, element_metrics
from ..vcgen import Examiner, ExaminerLimits

__all__ = ["BlockMeasurement", "figure2", "render_figure2"]


@dataclass
class BlockMeasurement:
    index: int
    title: str
    transformations: int
    lines_of_code: int
    logical_sloc: int
    subprograms: int
    average_mccabe: float
    feasible: bool
    vc_count: int
    generated_mb: float
    simplified_mb: float
    max_vc_lines: int
    work_units: int
    simulated_seconds: float
    wall_seconds: float
    match_percent: float
    theorem_levels: Dict[str, int]   # preservation theorems by level


def _measure(block: BlockResult, limits: ExaminerLimits) -> BlockMeasurement:
    pkg = block.typed.package
    elements = element_metrics(pkg)
    complexity = complexity_metrics(pkg)

    # Paper protocol: set all postconditions to true before examining.
    stripped = analyze(with_true_postconditions(pkg))
    report = Examiner(stripped, limits=limits).examine()

    skeleton = extract_skeleton(block.typed)
    ratio = match_ratio(fips197_theory(), skeleton)

    return BlockMeasurement(
        index=block.index,
        title=block.title,
        transformations=block.transformation_count,
        lines_of_code=elements.lines_of_code,
        logical_sloc=elements.logical_sloc,
        subprograms=elements.subprograms,
        average_mccabe=complexity.average_mccabe,
        feasible=report.feasible,
        vc_count=report.vc_count,
        generated_mb=report.generated_bytes / (1024 * 1024),
        simplified_mb=report.simplified_bytes / (1024 * 1024),
        max_vc_lines=report.max_generated_lines,
        work_units=report.work_units,
        simulated_seconds=report.simulated_seconds,
        wall_seconds=report.wall_seconds,
        match_percent=ratio.percent,
        theorem_levels=dict(collections.Counter(
            theorem.level for app in block.applications
            for theorem in app.theorems.values())),
    )


@lru_cache(maxsize=4)
def figure2(upto: int = 14, check: str = "differential",
            trials: int = 4,
            max_tree_bytes: Optional[int] = None) -> List[BlockMeasurement]:
    """Run the pipeline and measure every block (0 = original)."""
    limits = ExaminerLimits()
    if max_tree_bytes is not None:
        limits = ExaminerLimits(max_tree_bytes=max_tree_bytes)
    pipeline = AESPipeline(check=check, trials=trials)
    measurements: List[BlockMeasurement] = []
    pipeline.run(upto=upto,
                 on_block=lambda b: measurements.append(_measure(b, limits)))
    return measurements


def render_figure2(measurements: List[BlockMeasurement]) -> str:
    header = (f"{'blk':>3} {'LoC':>5} {'SLOC':>5} {'subp':>4} "
              f"{'McCabe':>6} {'VCs':>4} {'genMB':>9} {'simpMB':>8} "
              f"{'work':>12} {'sim-s':>8} {'match%':>6}")
    lines = [header, "-" * len(header)]
    for m in measurements:
        if m.feasible:
            lines.append(
                f"{m.index:>3} {m.lines_of_code:>5} {m.logical_sloc:>5} "
                f"{m.subprograms:>4} {m.average_mccabe:>6.2f} {m.vc_count:>4} "
                f"{m.generated_mb:>9.3f} {m.simplified_mb:>8.4f} "
                f"{m.work_units:>12} {m.simulated_seconds:>8.1f} "
                f"{m.match_percent:>6.1f}")
        else:
            lines.append(
                f"{m.index:>3} {m.lines_of_code:>5} {m.logical_sloc:>5} "
                f"{m.subprograms:>4} {m.average_mccabe:>6.2f} "
                f"{'-- analysis infeasible (resources exhausted) --':>44} "
                f"{m.match_percent:>6.1f}")
    return "\n".join(lines)
