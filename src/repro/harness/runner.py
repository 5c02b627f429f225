"""Experiment runner: regenerates every table and figure of the paper's
evaluation and writes a combined report (used to produce EXPERIMENTS.md).

Run as ``python -m repro.harness.runner [--quick] [--plan]
[--incremental] [--manifest-dir DIR]`` plus the execution flags of
:mod:`repro.exec.cli` (``--help`` lists them all).  ``--plan`` runs the
automated verification-refactoring planner (:mod:`repro.plan`) on the
AES case study instead of the table/figure harness, writing
``results/plan.md`` (with ``REPRO_CACHE_DIR`` set, its probe scores and
theorem verdicts persist in the result cache, so a replan replays
warm).  The execution flags map onto one
:class:`~repro.exec.ExecConfig` driving the proof legs; its
``to_json()`` is recorded in ``results/telemetry.json`` beside any
backend degradations.  ``--incremental`` replays
unchanged-cone verdicts from the previous run's manifest
(``results/manifest`` by default; pair with ``REPRO_CACHE_DIR`` so the
result cache survives across processes) and surfaces the
``incr_replayed`` / ``incr_rechecked`` / ``incr_manifest_miss``
counters in the telemetry context.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional

from ..exec import ExecConfig, atomic_write_text, default_telemetry
from ..exec.cli import add_exec_arguments, exec_config
from .figures import figure2, render_figure2
from .tables import (
    defect_tables, implementation_proof_stats, implication_proof_stats,
    render_defect_table, render_table1, table1,
)

__all__ = ["run_all", "main"]


def run_all(upto: int = 14, quick: bool = False,
            exec: Optional[ExecConfig] = None,
            manifest_dir: Optional[str] = None,
            incremental: bool = False) -> str:
    config = exec if exec is not None else ExecConfig()
    sections = []
    # Monotonic: a wall-clock step mid-run must not distort the report
    # (same defect class as serve's queue_seconds, fixed in PR 7).
    started = time.monotonic()

    sections.append("## Figure 2: metrics across the transformation blocks")
    measurements = figure2(upto=upto)
    sections.append("```")
    sections.append(render_figure2(measurements))
    levels = sum((collections.Counter(m.theorem_levels)
                  for m in measurements), collections.Counter())
    sections.append(f"preservation theorems by evidence level: "
                    f"{dict(levels)}")
    sections.append("```")

    sections.append("## Table 1: annotations in the implementation proof")
    sections.append("```")
    sections.append(render_table1(table1()))
    sections.append("```")

    sections.append("## Implementation proof (paper 6.2.3)")
    impl = implementation_proof_stats(exec=config,
                                      manifest_dir=manifest_dir,
                                      incremental=incremental)
    auto_sps = impl.fully_automatic_subprograms()
    total_sps = len({o.vc.subprogram for o in impl.outcomes})
    sections.append("```")
    if impl.incremental is not None:
        stats = impl.incremental
        sections.append(
            f"incremental                replayed {stats.replayed_vcs} / "
            f"re-checked {stats.rechecked_vcs} VCs "
            f"(manifest miss: {stats.manifest_miss})")
    sections.append(
        f"total VCs                  {impl.total_vcs}\n"
        f"discharged automatically   {impl.auto_discharged} "
        f"({impl.auto_percent:.1f}%)\n"
        f"discharged interactively   {impl.interactive_discharged}\n"
        f"undischarged               {len(impl.undischarged)}\n"
        f"fully automatic subprograms {len(auto_sps)} of {total_sps}\n"
        f"max interactive VC length  {impl.max_interactive_vc_lines} lines\n"
        f"wall time                  {impl.wall_seconds:.1f} s")
    sections.append("```")

    sections.append("## Implication proof (paper 6.2.4)")
    imp = implication_proof_stats(exec=config)
    res = imp.result
    sections.append("```")
    sections.append(
        f"extracted specification    {imp.extracted_lines} lines\n"
        f"extracted-spec TCCs        {imp.extracted_tccs_total} "
        f"({imp.extracted_tccs_proved} proved automatically, "
        f"{imp.extracted_tccs_subsumed} subsumed)\n"
        f"major lemmas               {res.lemma_count}\n"
        f"implication TCCs           "
        f"{res.tcc_total} ({res.tcc_proved} proved, "
        f"{res.tcc_subsumed} subsumed)\n"
        f"lemmas by evidence level   {res.by_evidence()}\n"
        f"lemmas needing manual steps {res.interactive_lemmas} "
        f"(total steps {res.total_manual_steps})\n"
        f"structure match ratio      {res.ratio.percent:.1f}%\n"
        f"theorem holds              {res.holds} "
        f"(proof strength: {res.is_proof})\n"
        f"wall time                  {res.wall_seconds:.1f} s")
    sections.append("```")

    if not quick:
        sections.append("## Tables 2 and 3: defect detection")
        tables = defect_tables()
        for setup in sorted(tables):
            sections.append("```")
            sections.append(render_defect_table(setup, tables[setup]))
            sections.append("```")

    sections.append("## Obligation execution (repro.exec)")
    sections.append("```")
    sections.append(default_telemetry().summary())
    sections.append("```")

    sections.append(
        f"\n_total harness time: {time.monotonic() - started:.0f} s_")
    return "\n\n".join(sections)


def run_plan(exec: ExecConfig) -> str:
    """``--plan`` mode: run the automated planner on the AES case study
    and render its chain report (written to ``results/plan.md``)."""
    from ..plan.cli import render_report
    from ..plan import plan_aes
    started = time.monotonic()
    result = plan_aes(exec=exec)
    return render_report(result, time.monotonic() - started)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.runner", allow_abbrev=False,
        description="Regenerate the paper's tables and figures.")
    add = parser.add_argument
    add("--quick", action="store_true", help="skip the defect tables")
    add("--plan", action="store_true", help="run the planner instead")
    add("--incremental", action="store_true",
        help="replay unchanged-cone verdicts from the last manifest")
    add("--manifest-dir", metavar="DIR",
        help="manifest directory (default results/manifest)")
    add_exec_arguments(parser)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = exec_config(parser, args)
    out = Path("results")
    if args.plan:
        report = run_plan(exec=config)
        print(report)
        out.mkdir(exist_ok=True)
        atomic_write_text(out / "plan.md", report)
        return 0
    # --incremental implies the default manifest directory; naming a
    # --manifest-dir alone persists manifests without consulting them
    # (the warm-up run).
    incremental = args.incremental
    manifest_dir = args.manifest_dir
    if manifest_dir is None and incremental:
        manifest_dir = "results/manifest"
    if incremental and not os.environ.get("REPRO_CACHE_DIR"):
        print("note: --incremental replays verdicts from the result "
              "cache; without REPRO_CACHE_DIR the cache is per-process "
              "and nothing can replay across runs", file=sys.stderr)
    report = run_all(quick=args.quick, exec=config,
                     manifest_dir=manifest_dir, incremental=incremental)
    print(report)
    out.mkdir(exist_ok=True)
    # Atomic publication: a reader (or a crash) mid-run never sees a
    # truncated report next to a fresh figure.
    atomic_write_text(out / "report.md", report)
    measurements = figure2()
    atomic_write_text(out / "figure2.json", json.dumps(
        [m.__dict__ for m in measurements], indent=2, default=str))
    impl = implementation_proof_stats(   # memoized: same run
        exec=config, manifest_dir=manifest_dir, incremental=incremental)
    context = config.to_json()
    context["rewrite_hot_path"] = {
        "index_hits": impl.report.index_hits,
        "index_skipped_rules": impl.report.index_skipped_rules,
        "cross_vc_hits": impl.report.cross_vc_hits,
    }
    if impl.incremental is not None:
        context["incremental"] = impl.incremental.to_json()
    default_telemetry().dump_json(out / "telemetry.json", context=context)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
