"""Obligation-scheduler benchmark: the full AES verification run serial,
parallel, and warm-cache, plus the cross-backend gate.

Serial (``jobs=1``) is the pre-scheduler baseline path; process-parallel
ships declarative payloads to worker processes for true multi-core
proving; warm-cache replays every obligation from the content-addressed
cache and must perform **zero** auto-stage VC discharges.

The cross-backend gate runs the full AES implementation proof (the
paper's 306-VC corpus) on the serial and process backends and requires
bit-identical per-VC outcomes.  On a multi-core machine the process
backend must also be at least 1.5x faster than the serial baseline.

Check mode (``REPRO_BENCH_CHECK=1``, used by CI): the differential gate
still runs in full, but the speedup assertion is skipped -- CI runners
make no timing promises.  The gate, not the timing, is the correctness
contract.
"""

import os
import time

from repro.aes.annotations import annotated_package
from repro.aes.proof_scripts import aes_proof_scripts
from repro.core.pipeline import verify_aes
from repro.exec import ExecConfig, ResultCache, Telemetry
from repro.prover import ImplementationProof

CHECK_MODE = os.environ.get("REPRO_BENCH_CHECK", "") not in ("", "0")


def _outcome_stages(result):
    return [(o.vc.subprogram, o.vc.name, o.stage,
             o.result.proved if o.result else None)
            for o in result.implementation.outcomes]


def _vc_outcomes(result):
    return [(o.vc.subprogram, o.vc.name, o.vc.kind, o.stage,
             o.result.proved if o.result else None,
             o.result.method if o.result else None)
            for o in result.outcomes]


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


def bench_scheduler_backends(benchmark):
    """The cross-backend gate on the full AES VC corpus.

    serial / process jobs=4 must produce bit-identical
    per-VC outcomes; on a multi-core machine the process backend must
    beat the serial baseline by >= 1.5x (skipped in check mode and on
    single-core machines, where a process pool cannot beat anything).
    """
    typed = annotated_package()
    scripts = aes_proof_scripts()
    jobs = min(4, os.cpu_count() or 1) if CHECK_MODE else 4

    def run(backend, n):
        t0 = time.perf_counter()
        result = ImplementationProof(
            typed, scripts=scripts,
            exec=ExecConfig(jobs=n, backend=backend, cache=False)).run()
        return result, time.perf_counter() - t0

    serial, serial_s = benchmark.pedantic(
        lambda: run("serial", 1), rounds=1, iterations=1)
    process, process_s = run("process", jobs)

    print()
    print(f"serial            {serial_s:.1f} s "
          f"({serial.total_vcs} VCs, {serial.auto_percent:.1f}% auto)")
    print(f"process jobs={jobs}    {process_s:.1f} s "
          f"(speedup {serial_s / process_s:.2f}x over serial)")

    # The differential gate: bit-identical outcomes.
    assert _vc_outcomes(process) == _vc_outcomes(serial)
    assert process.auto_percent == serial.auto_percent
    assert process.fully_automatic_subprograms() == \
        serial.fully_automatic_subprograms()

    if not CHECK_MODE and (os.cpu_count() or 1) >= 2:
        assert serial_s / process_s >= 1.5, (
            f"process backend speedup {serial_s / process_s:.2f}x "
            f"< 1.5x on a {os.cpu_count()}-core machine")
