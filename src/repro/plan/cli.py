"""Command line for the automated planner: ``python -m repro.plan``.

Plans the AES case study by default and prints the discovered chain as
a human-readable report (or JSON with ``--json``).  The execution flags
are the harness's (:mod:`repro.exec.cli`): they configure the obligation
scheduler the planner fans candidate evaluations out on.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import List, Optional

from ..exec.cli import add_exec_arguments, exec_config

__all__ = ["main"]


def render_report(result, elapsed: float) -> str:
    """The plan as a markdown-ish report (shared with the harness)."""
    lines = [
        "# Automated verification-refactoring plan",
        "",
        f"chain found: {result.found}  "
        f"({result.step_count} steps, {result.expansions} expansions, "
        f"{result.evaluations} candidate evaluations, "
        f"{result.validations} theorem validations, "
        f"{len(result.rejected)} rejected)",
        f"chain digest: {result.chain_digest}",
        "reused: " + ", ".join(f"{kind} {count}"
                               for kind, count in result.reused.items()),
        f"wall time: {elapsed:.1f} s",
        "",
        "| # | step | origin | match % | score |",
        "|---|------|--------|---------|-------|",
    ]
    for i, step in enumerate(result.steps, start=1):
        lines.append(
            f"| {i} | {step.description} | {step.origin} "
            f"| {step.match_percent:.1f} | {step.score:+.4f} |")
    evaluation = result.final_evaluation
    if evaluation is not None:
        lines += [
            "",
            f"final state: match {100 * evaluation.match_fraction:.1f}%, "
            f"{evaluation.logical_sloc} logical SLOC, "
            f"avg McCabe {evaluation.average_mccabe:.2f}",
        ]
        if evaluation.probed:
            lines.append(
                f"probe: {evaluation.probe_discharged}/"
                f"{evaluation.probe_total} VCs auto-discharged "
                f"(feasible: {evaluation.feasible})")
    if result.rejected:
        lines += ["", "rejected by the preservation theorem:"]
        lines += [f"- {description}: {reason}"
                  for _, description, reason in result.rejected]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.plan", allow_abbrev=False,
        description="Plan a verification-refactoring chain for AES.")
    add = parser.add_argument
    add("--trials", type=int, default=2, help="trials per validation")
    add("--beam", type=int, default=12, help="frontier width")
    add("--top-k", type=int, default=6, help="children per expansion")
    add("--max-expansions", type=int, default=256)
    add("--json", action="store_true", help="JSON output (implies --quiet)")
    add("--quiet", action="store_true", help="no progress log")
    add_exec_arguments(parser)
    args = parser.parse_args(argv)
    config = exec_config(parser, args)

    from . import plan_aes
    log = (lambda message: None) if args.quiet or args.json \
        else (lambda message: print(f"  {message}", flush=True))
    started = time.monotonic()
    result = plan_aes(trials=args.trials, exec=config, beam_width=args.beam,
                      top_k=args.top_k, max_expansions=args.max_expansions,
                      log=log)
    elapsed = time.monotonic() - started
    if args.json:
        payload = result.to_json()
        payload["wall_seconds"] = round(elapsed, 3)
        print(json.dumps(payload, indent=2))
    else:
        print(render_report(result, elapsed))
    return 0 if result.found else 1


if __name__ == "__main__":
    raise SystemExit(main())
