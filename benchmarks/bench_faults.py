"""Fault-tolerance and cross-backend benchmark: the full AES
implementation proof on the serial and process backends, clean and
under injected faults (DESIGN.md §12), plus the scheduler's cache modes.

``bench_chaos_gate`` runs one clean serial reference and two process
legs against it.  The clean legs run with no retries and must record
no retry and no error; the clean process leg must produce bit-identical
per-VC outcomes (the cross-backend gate) and, on a multi-core machine,
beat serial by at least 1.5x.  The chaos leg absorbs injected transient
raises through the retry policy and survives worker-killing crashes
(pool respawn + solo re-verification) and stalls; it too must produce
bit-identical per-VC outcomes -- fault tolerance must never change a
verdict, only the road taken to it -- and the telemetry failure taxonomy
must show the faults genuinely fired and were genuinely absorbed (no
quarantines, no errors).

``bench_scheduler_modes`` runs ``verify_aes`` serial with a cold cache,
on the process backend, then serial again from the warm cache, which
must perform **zero** VC discharges and replay the cold run's stages.

Check mode (``REPRO_BENCH_CHECK=1``, used by CI) caps ``jobs`` at the
runner's core count and skips the speedup assertion -- CI runners make
no timing promises; every differential gate always runs in full.
"""

import os
import tempfile
import time

from repro.aes.annotations import annotated_package
from repro.aes.proof_scripts import aes_proof_scripts
from repro.core.pipeline import verify_aes
from repro.exec import ExecConfig, ResultCache, RetryPolicy, Telemetry
from repro.prover import ImplementationProof

from tests.test_exec_faults import _inject

CHECK_MODE = os.environ.get("REPRO_BENCH_CHECK", "") not in ("", "0")

#: Fast backoff so the chaos run measures recovery, not sleeping.
RETRY = RetryPolicy(retries=2, base_delay=0.001, max_delay=0.01)


def _vc_outcomes(result):
    return [(o.vc.subprogram, o.vc.name, o.vc.kind, o.stage,
             o.result.proved if o.result else None,
             o.result.method if o.result else None)
            for o in result.outcomes]


def _outcome_stages(result):
    return [(o.vc.subprogram, o.vc.name, o.stage,
             o.result.proved if o.result else None)
            for o in result.implementation.outcomes]


def _hostile(i, ob):
    # transient raises absorbed by the retry policy, plus worker-killing
    # crashes and stalls, each on its own sparse deterministic schedule
    if i % 11 == 1:
        return ("raise",)
    if i % 61 == 3:
        return ("crash",)
    if i % 29 == 5:
        return ("stall",)
    return ()


def bench_chaos_gate(benchmark):
    typed = annotated_package()
    scripts = aes_proof_scripts()
    jobs = min(4, os.cpu_count() or 1) if CHECK_MODE else 4

    def run(backend, n, planner=None):
        # Clean legs get no retries, so no transient failure can pass
        # the cross-backend gate; only the chaos leg absorbs its faults.
        telemetry = Telemetry()
        state = tempfile.mkdtemp(prefix="repro-chaos-")
        t0 = time.perf_counter()
        with _inject(state, planner or (lambda i, ob: ())):
            result = ImplementationProof(
                typed, scripts=scripts,
                exec=ExecConfig(jobs=n, backend=backend, cache=False,
                                retries=RETRY if planner else 0,
                                telemetry=telemetry)).run()
        return result, telemetry.stats(), time.perf_counter() - t0

    serial, serial_stats, serial_s = benchmark.pedantic(
        lambda: run("serial", 1), rounds=1, iterations=1)
    process, process_stats, process_s = run("process", jobs)
    chaos, chaos_stats, chaos_s = run("process", jobs, _hostile)

    print()
    print(f"serial (clean)       {serial_s:.1f} s "
          f"({serial.total_vcs} VCs, {serial.auto_percent:.1f}% auto)")
    print(f"process jobs={jobs}       {process_s:.1f} s "
          f"(speedup {serial_s / process_s:.2f}x over serial)")
    print(f"process under chaos  {chaos_s:.1f} s "
          f"(crashes {chaos_stats.crashes}, "
          f"retried-ok {chaos_stats.retried_ok}, "
          f"quarantined {chaos_stats.quarantined})")

    # The cross-backend gate: bit-identical outcomes, reached cleanly.
    for stats in (serial_stats, process_stats):
        assert (stats.retries, stats.errors) == (0, 0)
    assert _vc_outcomes(process) == _vc_outcomes(serial)
    assert process.auto_percent == serial.auto_percent
    assert process.fully_automatic_subprograms() == \
        serial.fully_automatic_subprograms()
    # The chaos gate: faults never change a verdict...
    assert _vc_outcomes(chaos) == _vc_outcomes(serial)
    assert chaos.auto_percent == serial.auto_percent
    # ...and the faults really happened and were really absorbed.
    assert chaos_stats.crashes >= 1
    assert chaos_stats.retried_ok >= 1
    assert chaos_stats.quarantined == 0
    assert chaos_stats.errors == 0

    if not CHECK_MODE and (os.cpu_count() or 1) >= 2:
        assert serial_s / process_s >= 1.5, (
            f"process backend speedup {serial_s / process_s:.2f}x "
            f"< 1.5x on a {os.cpu_count()}-core machine")


def bench_scheduler_modes(benchmark):
    cache = ResultCache()
    tel_serial, tel_parallel, tel_warm = (
        Telemetry(), Telemetry(), Telemetry())

    serial = benchmark.pedantic(
        lambda: verify_aes(exec=ExecConfig(jobs=1, cache=cache,
                                           telemetry=tel_serial)),
        rounds=1, iterations=1)

    t0 = time.perf_counter()
    parallel = verify_aes(exec=ExecConfig(jobs=4, backend="process",
                                          cache=False,
                                          telemetry=tel_parallel))
    parallel_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = verify_aes(exec=ExecConfig(jobs=1, cache=cache,
                                      telemetry=tel_warm))
    warm_s = time.perf_counter() - t0

    s_serial = tel_serial.stats()
    s_warm = tel_warm.stats()
    print()
    print(f"serial (cold)    obligations {s_serial.total}; "
          f"computed {dict(s_serial.computed)}")
    print(f"parallel jobs=4  {parallel_s:.1f} s")
    print(f"warm cache       {warm_s:.1f} s; "
          f"computed {dict(s_warm.computed)}; "
          f"cached {dict(s_warm.cached)}; "
          f"hit rate {100.0 * s_warm.hit_rate:.1f}%")

    assert serial.verified and parallel.verified and warm.verified
    # parallel performs the same proof: identical per-VC outcomes.
    assert _outcome_stages(parallel) == _outcome_stages(serial)
    # warm run replays everything: zero auto-stage VC discharges.
    assert s_warm.computed.get("vc", 0) == 0
    assert s_warm.cached.get("vc", 0) == s_serial.computed.get("vc", 0)
    assert _outcome_stages(warm) == _outcome_stages(serial)
