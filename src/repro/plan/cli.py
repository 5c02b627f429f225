"""Command line for the automated planner: ``python -m repro.plan``.

Plans the AES case study by default and prints the discovered chain as
a human-readable report (or JSON with ``--json``).  Execution flags
mirror the harness: ``--jobs``/``--backend`` configure the obligation
scheduler the planner fans candidate evaluations out on.
"""

from __future__ import annotations

import json
import sys
import time
from typing import List, Optional

from ..exec import ExecConfig

__all__ = ["main"]


def _flag_value(argv: List[str], flag: str) -> Optional[str]:
    for i, arg in enumerate(argv):
        if arg == flag and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith(flag + "="):
            return arg.split("=", 1)[1]
    return None


def _int_flag(argv: List[str], flag: str, default: int) -> int:
    raw = _flag_value(argv, flag)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"{flag} needs an integer, got {raw!r}")


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
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--help" in argv or "-h" in argv:
        print("usage: python -m repro.plan [--jobs N] [--backend B] "
              "[--trials N] [--beam N] [--top-k N] [--max-expansions N] "
              "[--batch-size N] [--batch-bytes-cap N] "
              "[--plan-cache PATH] [--json] [--quiet]")
        return 0
    jobs = _int_flag(argv, "--jobs", 1)
    backend = _flag_value(argv, "--backend") or "serial"
    trials = _int_flag(argv, "--trials", 2)
    beam = _int_flag(argv, "--beam", 12)
    top_k = _int_flag(argv, "--top-k", 6)
    max_expansions = _int_flag(argv, "--max-expansions", 256)
    batch_size = _int_flag(argv, "--batch-size", 16)
    batch_bytes_cap = _int_flag(argv, "--batch-bytes-cap", 4 * 1024 * 1024)
    plan_cache = _flag_value(argv, "--plan-cache")
    quiet = "--quiet" in argv or "--json" in argv

    from . import plan_aes
    try:
        config = ExecConfig(jobs=jobs, backend=backend,
                            batch_size=batch_size,
                            batch_bytes_cap=batch_bytes_cap)
    except ValueError as exc:
        # Loud failure over silent degradation: a nonsensical batching
        # knob must stop the run, not quietly drop work.
        raise SystemExit(str(exc))
    log = (lambda message: None) if quiet \
        else (lambda message: print(f"  {message}", flush=True))
    started = time.monotonic()
    result = plan_aes(trials=trials, exec=config, beam_width=beam,
                      top_k=top_k, max_expansions=max_expansions,
                      plan_cache=plan_cache, log=log)
    elapsed = time.monotonic() - started
    if "--json" in argv:
        payload = result.to_json()
        payload["wall_seconds"] = round(elapsed, 3)
        print(json.dumps(payload, indent=2))
    else:
        print(render_report(result, elapsed))
    return 0 if result.found else 1


if __name__ == "__main__":
    raise SystemExit(main())
