"""Profiling entry point for the proof pipeline's hot paths.

Run as ``python -m repro.harness.profile STAGE [--top N] [--json]``.
Wraps one pipeline stage in :mod:`cProfile` and prints the top-N
functions by cumulative time -- the quickest way to see where an
optimization (DESIGN.md section 13) actually lands.

Stages:

``examine``      VC generation + simplification over the annotated AES
                 (the rewriter-dominated leg).
``impl-proof``   the full implementation proof, serial backend (vcgen,
                 simplify, auto prover, interactive scripts).
``implication``  the implication proof against the FIPS-197 theory.
``figure2``      the metrics sweep across all transformation blocks.

``--json`` emits the rows as a machine-readable list instead of the
pstats table (schema: ``{"stage", "total_seconds", "rows": [{"function",
"calls", "tottime", "cumtime"}]}``).
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
from typing import Callable, Dict

__all__ = ["STAGES", "profile_stage", "main"]


def _stage_examine() -> None:
    from ..aes.annotations import annotated_package
    from ..vcgen import Examiner
    Examiner(annotated_package()).examine()


def _stage_impl_proof() -> None:
    from ..aes.annotations import annotated_package
    from ..aes.proof_scripts import aes_proof_scripts
    from ..exec import ExecConfig
    from ..prover import ImplementationProof
    # Serial backend: keeps every frame in this process so the profile
    # sees the provers, not a pool round-trip.
    ImplementationProof(annotated_package(), scripts=aes_proof_scripts(),
                        exec=ExecConfig(jobs=1, backend="serial")).run()


def _stage_implication() -> None:
    from ..aes.annotations import annotated_package
    from ..aes.fips197 import fips197_theory
    from ..exec import ExecConfig
    from ..extract import extract_specification
    from ..implication import prove_implication
    extraction = extract_specification(annotated_package())
    prove_implication(fips197_theory(), extraction.theory,
                      exec=ExecConfig(jobs=1, backend="serial"))


def _stage_figure2() -> None:
    from .figures import figure2
    figure2()


STAGES: Dict[str, Callable[[], None]] = {
    "examine": _stage_examine,
    "impl-proof": _stage_impl_proof,
    "implication": _stage_implication,
    "figure2": _stage_figure2,
}


def profile_stage(stage: str) -> pstats.Stats:
    """Run ``stage`` under cProfile and return its stats."""
    try:
        fn = STAGES[stage]
    except KeyError:
        raise ValueError(f"unknown stage {stage!r}; expected one of "
                         f"{'/'.join(sorted(STAGES))}")
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    return pstats.Stats(profiler)


def _rows(stats: pstats.Stats, top: int):
    rows = []
    entries = sorted(stats.stats.items(),
                     key=lambda item: item[1][3], reverse=True)
    for (filename, lineno, name), data in entries[:top]:
        ncalls, _primcalls, tottime, cumtime, _callers = (
            data[0], data[1], data[2], data[3], data[4])
        rows.append({
            "function": f"{filename}:{lineno}({name})",
            "calls": ncalls,
            "tottime": round(tottime, 6),
            "cumtime": round(cumtime, 6),
        })
    return rows


def main(argv=None) -> int:
    def count(text: str) -> int:   # argparse names the type in errors
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        return value

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.profile", allow_abbrev=False,
        description="Profile one pipeline stage under cProfile.")
    parser.add_argument("stage", choices=sorted(STAGES))
    parser.add_argument("--top", type=count, default=25,
                        help="functions to show (default 25)")
    parser.add_argument("--json", action="store_true",
                        help="emit the rows as JSON")
    args = parser.parse_args(argv)
    stats = profile_stage(args.stage)
    if args.json:
        print(json.dumps({
            "stage": args.stage,
            "total_seconds": round(stats.total_tt, 6),
            "rows": _rows(stats, args.top),
        }, indent=2))
    else:
        buffer = io.StringIO()
        stats.stream = buffer
        stats.sort_stats("cumulative").print_stats(args.top)
        print(f"stage: {args.stage} ({stats.total_tt:.3f} s total)")
        print(buffer.getvalue())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
