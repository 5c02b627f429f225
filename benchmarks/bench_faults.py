"""Fault-tolerance and cross-backend benchmark: the full AES
implementation proof on the serial and process backends, clean and
under injected faults (DESIGN.md §12), plus the scheduler's cache modes.

``bench_chaos_gate`` runs two process legs against the serial reference
(:func:`benchmarks.gates.aes_reference`, which runs with no retries and
raises on any error).  The clean process leg runs with no retries and
must record no retry and no error; it must produce bit-identical
per-VC outcomes, proof details included (the cross-backend gate, which
is also the full-corpus check that VC order does not matter: workers
run each subprogram's VCs in no fixed order) and, on a multi-core machine,
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

On a CI host (``REPRO_BENCH_CHECK=1``) ``jobs`` is capped at the
runner's core count and the speedup assertion is skipped -- CI runners
make no timing promises; every differential gate always runs in full.
Results go to ``BENCH_gates.json`` under ``chaos`` and ``cache_modes``.
"""

import os
import tempfile
import time

from repro.aes.annotations import annotated_package
from repro.aes.proof_scripts import aes_proof_scripts
from repro.core.pipeline import verify_aes
from repro.exec import ExecConfig, ResultCache, RetryPolicy, Telemetry
from repro.prover import ImplementationProof

from benchmarks.gates import aes_reference, record, verdict_keys
from tests.test_exec_faults import _inject

_CI_HOST = os.environ.get("REPRO_BENCH_CHECK", "") not in ("", "0")

#: Fast backoff so the chaos run measures recovery, not sleeping.
RETRY = RetryPolicy(retries=2, base_delay=0.001, max_delay=0.01)


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


def bench_chaos_gate():
    typed = annotated_package()
    scripts = aes_proof_scripts()
    jobs = min(4, os.cpu_count() or 1) if _CI_HOST else 4

    def run(planner=None):
        # The clean leg gets no retries, so no transient failure can pass
        # the cross-backend gate; only the chaos leg absorbs its faults.
        telemetry = Telemetry()
        state = tempfile.mkdtemp(prefix="repro-chaos-")
        t0 = time.perf_counter()
        with _inject(state, planner or (lambda i, ob: ())):
            result = ImplementationProof(
                typed, scripts=scripts,
                exec=ExecConfig(jobs=jobs, backend="process", cache=False,
                                retries=RETRY if planner else 0,
                                telemetry=telemetry)).run()
        return result, telemetry.stats(), time.perf_counter() - t0

    serial, serial_s = aes_reference()
    process, process_stats, process_s = run()
    chaos, chaos_stats, chaos_s = run(_hostile)

    print()
    print(f"serial (clean)       {serial_s:.1f} s "
          f"({serial.total_vcs} VCs, {serial.auto_percent:.1f}% auto)")
    print(f"process jobs={jobs}       {process_s:.1f} s "
          f"(speedup {serial_s / process_s:.2f}x over serial)")
    print(f"process under chaos  {chaos_s:.1f} s "
          f"(crashes {chaos_stats.crashes}, "
          f"retried-ok {chaos_stats.retried_ok}, "
          f"quarantined {chaos_stats.quarantined})")
    record("chaos", {
        "jobs": jobs,
        "total_vcs": serial.total_vcs,
        "serial_seconds": round(serial_s, 3),
        "process_seconds": round(process_s, 3),
        "chaos_seconds": round(chaos_s, 3),
        "crashes": chaos_stats.crashes,
        "retried_ok": chaos_stats.retried_ok,
        "quarantined": chaos_stats.quarantined,
    })

    # The cross-backend gate: bit-identical outcomes, reached cleanly.
    # Workers run each subprogram's VCs in no fixed order, so comparing
    # the proofs' details too makes this the full-corpus order check.
    reference = verdict_keys(serial, method=True, detail=True)
    assert (process_stats.retries, process_stats.errors) == (0, 0)
    assert verdict_keys(process, method=True, detail=True) == reference
    assert process.auto_percent == serial.auto_percent
    assert process.fully_automatic_subprograms() == \
        serial.fully_automatic_subprograms()
    # The chaos gate: faults never change a verdict...
    assert verdict_keys(chaos, method=True, detail=True) == reference
    assert chaos.auto_percent == serial.auto_percent
    # ...and the faults really happened and were really absorbed.
    assert chaos_stats.crashes >= 1
    assert chaos_stats.retried_ok >= 1
    assert chaos_stats.quarantined == 0
    assert chaos_stats.errors == 0

    if not _CI_HOST and (os.cpu_count() or 1) >= 2:
        assert serial_s / process_s >= 1.5, (
            f"process backend speedup {serial_s / process_s:.2f}x "
            f"< 1.5x on a {os.cpu_count()}-core machine")


def bench_scheduler_modes():
    cache = ResultCache()
    tel_serial, tel_parallel, tel_warm = (
        Telemetry(), Telemetry(), Telemetry())

    serial = verify_aes(exec=ExecConfig(jobs=1, cache=cache,
                                        telemetry=tel_serial))

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
    record("cache_modes", {
        "cold_computed": dict(s_serial.computed),
        "parallel_seconds": round(parallel_s, 3),
        "warm_seconds": round(warm_s, 3),
        "warm_computed": dict(s_warm.computed),
        "warm_cached": dict(s_warm.cached),
    })

    assert serial.verified and parallel.verified and warm.verified
    # parallel performs the same proof: identical per-VC outcomes.
    reference = verdict_keys(serial.implementation)
    assert verdict_keys(parallel.implementation) == reference
    # warm run replays everything: zero auto-stage VC discharges.
    assert s_warm.computed.get("vc", 0) == 0
    assert s_warm.cached.get("vc", 0) == s_serial.computed.get("vc", 0)
    assert verdict_keys(warm.implementation) == reference
