"""Fault-tolerance benchmark: the full AES implementation proof under
injected faults (DESIGN.md §12).

A clean serial run is the baseline; a process run absorbs injected
transient raises through the retry policy and survives worker-killing
crashes (pool respawn + solo re-verification) and stalls.  The gate:
both produce bit-identical per-VC outcomes
-- fault tolerance must never change a verdict, only the road taken to
it -- and the telemetry failure taxonomy must show the faults genuinely
fired and were genuinely absorbed (no quarantines, no errors).

Check mode (``REPRO_BENCH_CHECK=1``, used by CI) caps ``jobs`` at the
runner's core count; the differential gate always runs in full.
"""

import os
import tempfile
import time

from repro.aes.annotations import annotated_package
from repro.aes.proof_scripts import aes_proof_scripts
from repro.exec import ExecConfig, RetryPolicy, Telemetry
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

    def run(backend, n, planner):
        telemetry = Telemetry()
        state = tempfile.mkdtemp(prefix="repro-chaos-")
        t0 = time.perf_counter()
        with _inject(state, planner):
            result = ImplementationProof(
                typed, scripts=scripts,
                exec=ExecConfig(jobs=n, backend=backend, cache=False,
                                retries=RETRY, telemetry=telemetry)).run()
        return result, telemetry.stats(), time.perf_counter() - t0

    serial, _, serial_s = benchmark.pedantic(
        lambda: run("serial", 1, lambda i, ob: ()), rounds=1, iterations=1)
    process, process_stats, process_s = run("process", jobs, _hostile)

    print()
    print(f"serial (clean)       {serial_s:.1f} s "
          f"({serial.total_vcs} VCs, {serial.auto_percent:.1f}% auto)")
    print(f"process under chaos  {process_s:.1f} s "
          f"(crashes {process_stats.crashes}, "
          f"retried-ok {process_stats.retried_ok}, "
          f"quarantined {process_stats.quarantined})")

    # The gate: faults never change a verdict.
    assert _vc_outcomes(process) == _vc_outcomes(serial)
    assert process.auto_percent == serial.auto_percent
    # ...and the faults really happened and were really absorbed.
    assert process_stats.crashes >= 1
    assert process_stats.retried_ok >= 1
    assert process_stats.quarantined == 0
    assert process_stats.errors == 0
