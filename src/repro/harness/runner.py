"""Experiment runner: regenerates every table and figure of the paper's
evaluation and writes a combined report (used to produce EXPERIMENTS.md).

Run as ``python -m repro.harness.runner [--quick] [--plan] [--jobs N]
[--backend {serial,process,remote}] [--timeout S] [--retries N]
[--max-retry-delay S] [--on-backend-failure {raise,degrade}]
[--remote-worker HOST:PORT]... [--remote-listen [HOST:]PORT]
[--lease-timeout S] [--no-remote-shared-cache]
[--batch-size N] [--batch-bytes-cap BYTES] [--plan-cache PATH]
[--incremental] [--manifest-dir DIR]``.  ``--plan`` runs the automated
verification-refactoring planner (:mod:`repro.plan`) on the AES case
study instead of the table/figure harness, writing ``results/plan.md``
(``--plan-cache`` persists its probe scores and theorem verdicts so a
replan replays warm).  The flags map onto one
:class:`~repro.exec.ExecConfig` driving the proof legs; the execution
configuration (including the retry policy and any backend degradations)
is recorded in ``results/telemetry.json``.  ``--incremental`` replays
unchanged-cone verdicts from the previous run's manifest
(``results/manifest`` by default; pair with ``REPRO_CACHE_DIR`` so the
result cache survives across processes) and surfaces the
``incr_replayed`` / ``incr_rechecked`` / ``incr_manifest_miss``
counters in the telemetry context.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Optional

from ..exec import (BACKENDS, ExecConfig, RetryPolicy, atomic_write_text,
                    default_telemetry)
from .figures import figure2, render_figure2
from .tables import (
    defect_tables, implementation_proof_stats, implication_proof_stats,
    render_defect_table, render_table1, table1,
)

__all__ = ["run_all", "main"]


def run_all(upto: int = 14, quick: bool = False, jobs: int = 1,
            backend: str = "serial",
            timeout: Optional[float] = None,
            exec: Optional[ExecConfig] = None,
            manifest_dir: Optional[str] = None,
            incremental: bool = False) -> str:
    config = exec if exec is not None else \
        ExecConfig(jobs=jobs, backend=backend, timeout_seconds=timeout)
    sections = []
    # Monotonic: a wall-clock step mid-run must not distort the report
    # (same defect class as serve's queue_seconds, fixed in PR 7).
    started = time.monotonic()

    sections.append("## Figure 2: metrics across the transformation blocks")
    measurements = figure2(upto=upto)
    sections.append("```")
    sections.append(render_figure2(measurements))
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
        f"lemma evidence             {res.by_evidence()}\n"
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


def _flag_value(argv, flag: str) -> Optional[str]:
    raw = None
    for i, arg in enumerate(argv):
        if arg == flag and i + 1 < len(argv):
            raw = argv[i + 1]
        elif arg.startswith(flag + "="):
            raw = arg.split("=", 1)[1]
    return raw


def _parse_jobs(argv) -> int:
    raw = _flag_value(argv, "--jobs")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise SystemExit(f"error: --jobs expects an integer, got {raw!r}")
    if value < 1:
        # A typo'd --jobs 0 used to be clamped to 1, silently serializing
        # the whole benchmark run; fail loudly instead.
        raise SystemExit(f"error: --jobs must be >= 1, got {raw!r}")
    return value


def _parse_backend(argv) -> str:
    raw = _flag_value(argv, "--backend")
    if raw is None:
        return "serial"
    if raw not in BACKENDS:
        raise SystemExit(f"error: --backend expects one of "
                         f"{'/'.join(BACKENDS)}, got {raw!r}")
    return raw


def _parse_timeout(argv) -> Optional[float]:
    raw = _flag_value(argv, "--timeout")
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise SystemExit(f"error: --timeout expects seconds, got {raw!r}")
    if value <= 0:
        raise SystemExit(f"error: --timeout must be positive, got {raw!r}")
    return value


def _parse_retry_policy(argv) -> RetryPolicy:
    raw = _flag_value(argv, "--retries")
    retries = 0
    if raw is not None:
        try:
            retries = int(raw)
        except ValueError:
            raise SystemExit(f"error: --retries expects an integer, "
                             f"got {raw!r}")
        if retries < 0:
            raise SystemExit(f"error: --retries must be >= 0, got {raw!r}")
    raw = _flag_value(argv, "--max-retry-delay")
    if raw is None:
        return RetryPolicy(retries=retries)
    try:
        max_delay = float(raw)
    except ValueError:
        raise SystemExit(f"error: --max-retry-delay expects seconds, "
                         f"got {raw!r}")
    if max_delay < 0:
        raise SystemExit(f"error: --max-retry-delay must be >= 0, "
                         f"got {raw!r}")
    return RetryPolicy(retries=retries, max_delay=max_delay)


def _parse_batch(argv) -> dict:
    """The micro-obligation batching knobs (DESIGN.md §18).  Bounds are
    enforced here *and* in ExecConfig -- the flag layer fails with the
    flag's name, so a typo'd ``--batch-size 0`` (which would silently
    drop work if clamped) stops the run before anything is scheduled."""
    fields = {}
    raw = _flag_value(argv, "--batch-size")
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            raise SystemExit(f"error: --batch-size expects an integer, "
                             f"got {raw!r}")
        if value < 1:
            raise SystemExit(f"error: --batch-size must be >= 1 "
                             f"(1 disables batching), got {raw!r}")
        fields["batch_size"] = value
    raw = _flag_value(argv, "--batch-bytes-cap")
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            raise SystemExit(f"error: --batch-bytes-cap expects bytes, "
                             f"got {raw!r}")
        if value <= 0:
            raise SystemExit(f"error: --batch-bytes-cap must be a "
                             f"positive byte count, got {raw!r}")
        fields["batch_bytes_cap"] = value
    return fields


def _parse_on_backend_failure(argv) -> str:
    raw = _flag_value(argv, "--on-backend-failure")
    if raw is None:
        return "raise"
    if raw not in ("raise", "degrade"):
        raise SystemExit(f"error: --on-backend-failure expects "
                         f"raise or degrade, got {raw!r}")
    return raw


def _flag_values(argv, flag: str) -> list:
    """Every occurrence of a repeatable ``--flag VALUE`` / ``--flag=VALUE``."""
    values = []
    for i, arg in enumerate(argv):
        if arg == flag and i + 1 < len(argv):
            values.append(argv[i + 1])
        elif arg.startswith(flag + "="):
            values.append(arg.split("=", 1)[1])
    return values


def _parse_remote(argv) -> dict:
    """The proof-farm fields of the ExecConfig: ``--remote-worker`` is
    repeatable (one listening worker address per flag), ``--remote-listen``
    binds the coordinator for dial-in workers, ``--lease-timeout`` bounds
    one obligation lease, ``--no-remote-shared-cache`` turns off the
    coordinator's networked cache tier.  Address validation is
    ExecConfig's own (``ValueError`` surfaces as a startup failure)."""
    fields = {
        "remote_workers": tuple(_flag_values(argv, "--remote-worker")),
        "remote_listen": _flag_value(argv, "--remote-listen"),
        "remote_shared_cache": "--no-remote-shared-cache" not in argv,
    }
    raw = _flag_value(argv, "--lease-timeout")
    if raw is not None:
        try:
            fields["lease_timeout_seconds"] = float(raw)
        except ValueError:
            raise SystemExit(f"error: --lease-timeout expects seconds, "
                             f"got {raw!r}")
    return fields


def _parse_incremental(argv):
    """``(manifest_dir, incremental)`` from ``--incremental`` /
    ``--manifest-dir``.  ``--incremental`` implies the default manifest
    directory (``results/manifest``); naming a ``--manifest-dir`` alone
    persists manifests without consulting them (the warm-up run)."""
    incremental = "--incremental" in argv
    manifest_dir = _flag_value(argv, "--manifest-dir")
    if manifest_dir is None and incremental:
        manifest_dir = "results/manifest"
    return manifest_dir, incremental


def run_plan(exec: ExecConfig, plan_cache=None) -> str:
    """``--plan`` mode: run the automated planner on the AES case study
    and render its chain report (written to ``results/plan.md``).
    ``plan_cache`` names the persistent probe/score store
    (``--plan-cache``) so a replan replays warm."""
    from ..plan.cli import render_report
    from ..plan import plan_aes
    started = time.monotonic()
    result = plan_aes(exec=exec, plan_cache=plan_cache)
    return render_report(result, time.monotonic() - started)


def main(argv=None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    if "--help" in argv or "-h" in argv:
        print("usage: python -m repro.harness.runner [--quick] [--plan] "
              "[--jobs N]\n"
              "  [--backend {serial,process,remote}] [--timeout S] "
              "[--retries N]\n"
              "  [--max-retry-delay S] [--on-backend-failure "
              "{raise,degrade}]\n"
              "  [--remote-worker HOST:PORT]... [--remote-listen "
              "[HOST:]PORT]\n"
              "  [--lease-timeout S] [--no-remote-shared-cache]\n"
              "  [--batch-size N] [--batch-bytes-cap BYTES] "
              "[--plan-cache PATH]\n"
              "  [--incremental] [--manifest-dir DIR]")
        return 0
    quick = "--quick" in argv
    try:
        config = ExecConfig(jobs=_parse_jobs(argv),
                            backend=_parse_backend(argv),
                            timeout_seconds=_parse_timeout(argv),
                            retries=_parse_retry_policy(argv),
                            on_backend_failure=_parse_on_backend_failure(argv),
                            **_parse_batch(argv),
                            **_parse_remote(argv))
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if "--plan" in argv:
        report = run_plan(exec=config,
                          plan_cache=_flag_value(argv, "--plan-cache"))
        print(report)
        out = Path("results")
        out.mkdir(exist_ok=True)
        atomic_write_text(out / "plan.md", report)
        return 0
    manifest_dir, incremental = _parse_incremental(argv)
    if incremental and not os.environ.get("REPRO_CACHE_DIR"):
        print("note: --incremental replays verdicts from the result "
              "cache; without REPRO_CACHE_DIR the cache is per-process "
              "and nothing can replay across runs", file=sys.stderr)
    report = run_all(quick=quick, exec=config,
                     manifest_dir=manifest_dir, incremental=incremental)
    print(report)
    out = Path("results")
    out.mkdir(exist_ok=True)
    # Atomic publication: a reader (or a crash) mid-run never sees a
    # truncated report next to a fresh figure.
    atomic_write_text(out / "report.md", report)
    measurements = figure2()
    atomic_write_text(out / "figure2.json", json.dumps(
        [m.__dict__ for m in measurements], indent=2, default=str))
    impl = implementation_proof_stats(   # memoized: same run
        exec=config, manifest_dir=manifest_dir, incremental=incremental)
    context = {
        "backend": config.backend,
        "jobs": config.jobs,
        "timeout_seconds": config.timeout_seconds,
        "retry_policy": config.retries.to_json(),
        "on_error": config.on_error,
        "on_backend_failure": config.on_backend_failure,
        "remote_workers": list(config.remote_workers),
        "remote_listen": config.remote_listen,
        "lease_timeout_seconds": config.lease_timeout_seconds,
        "remote_shared_cache": config.remote_shared_cache,
        "batch_size": config.batch_size,
        "batch_bytes_cap": config.batch_bytes_cap,
        "rewrite_hot_path": {
            "index_hits": impl.report.index_hits,
            "index_skipped_rules": impl.report.index_skipped_rules,
            "cross_vc_hits": impl.report.cross_vc_hits,
        },
    }
    if impl.incremental is not None:
        context["incremental"] = impl.incremental.to_json()
    default_telemetry().dump_json(out / "telemetry.json", context=context)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
