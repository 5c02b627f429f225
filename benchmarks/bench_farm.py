"""Proof-farm benchmark: remote-backend scaling + the farm-vs-serial
differential gate on the full AES corpus (DESIGN.md §16).

Legs:

* **differential gate** -- verdicts under ``backend="remote"`` must be
  bit-identical to the in-process serial reference
  (:func:`benchmarks.gates.aes_reference`) on all 467 VCs, in
  every farm shape: one worker, four workers, a two-worker farm with a
  cold then warm parent result cache, and a two-worker farm that loses a
  worker to ``SIGKILL`` mid-run (the coordinator blames the in-flight
  obligations and re-runs them on the survivor);
* **scaling** -- four workers must beat one worker by at least
  ``_MIN_SPEEDUP``x wall clock (the acceptance floor; the workload is
  embarrassingly parallel, so healthy farms measure well above it);
* **warm cache** -- the warm repeat over the same corpus must beat the
  cold fill: the parent's ``ResultCache`` settles every hit before
  dispatch, so the warm run ships no lease.

Every timing leg spawns *fresh* worker processes: a ``--listen`` worker
keeps its analyzed packages and normalization cache warm across runs,
which is a contaminant in a scaling measurement.

Results go to ``BENCH_gates.json`` under ``farm``.  Run with
``python -m pytest benchmarks/bench_farm.py -q -s``.
"""

import threading
import time
from contextlib import contextmanager

from repro.aes.annotations import annotated_package
from repro.aes.proof_scripts import aes_proof_scripts
from repro.exec import ExecConfig, ResultCache, Telemetry
from repro.exec.remote.worker import spawn_worker
from repro.prover import ImplementationProof

from benchmarks.gates import aes_reference, record, verdict_keys

#: Four workers must beat one worker by at least this factor.
_MIN_SPEEDUP = 1.5

#: The warm parent-cache repeat must beat its cold first run.
_MIN_WARM_SPEEDUP = 2.0


@contextmanager
def _farm(count, prefix):
    """``count`` fresh listen-mode workers; kills them on exit."""
    procs, addresses = [], []
    try:
        for i in range(count):
            proc, address = spawn_worker(listen="127.0.0.1:0",
                                         name=f"{prefix}{i}")
            procs.append(proc)
            addresses.append(address)
        yield procs, tuple(addresses)
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()


def _run(typed, scripts, config):
    started = time.perf_counter()
    result = ImplementationProof(typed, scripts=scripts,
                                 exec=config).run()
    return result, time.perf_counter() - started


def _remote_config(addresses, **kw):
    kw.setdefault("jobs", 2 * len(addresses))
    kw.setdefault("cache", False)
    kw.setdefault("telemetry", Telemetry())
    return ExecConfig(backend="remote", remote_workers=addresses, **kw)


def bench_farm_scaling():
    typed = annotated_package()
    scripts = aes_proof_scripts()

    serial, serial_seconds = aes_reference()
    reference = verdict_keys(serial)
    total_vcs = len(reference)

    # -- scaling: 1 worker vs 4 workers, fresh farms, no caches ----------
    with _farm(1, "solo") as (_, addresses):
        one, one_seconds = _run(typed, scripts, _remote_config(addresses))
    assert verdict_keys(one) == reference, \
        "1-worker farm verdicts diverge from the serial reference"

    with _farm(4, "quad") as (_, addresses):
        four, four_seconds = _run(typed, scripts,
                                  _remote_config(addresses))
    assert verdict_keys(four) == reference, \
        "4-worker farm verdicts diverge from the serial reference"
    scaling = one_seconds / four_seconds if four_seconds > 0 \
        else float("inf")

    # -- parent cache: cold fill, then a warm repeat ----------------------
    cache = ResultCache()
    with _farm(2, "duo") as (_, addresses):
        cold, cold_seconds = _run(
            typed, scripts,
            _remote_config(addresses, cache=cache, jobs=4))
        warm, warm_seconds = _run(
            typed, scripts,
            _remote_config(addresses, cache=cache, jobs=4))
    assert verdict_keys(cold) == reference, \
        "cold-cache farm verdicts diverge from the reference"
    assert verdict_keys(warm) == reference, \
        "warm-cache farm verdicts diverge from the reference"
    warm_speedup = cold_seconds / warm_seconds if warm_seconds > 0 \
        else float("inf")

    # -- worker loss mid-run: kill one of two, verdicts must not move ----
    with _farm(2, "frail") as (procs, addresses):
        assassin = threading.Timer(3.0, procs[0].kill)
        assassin.start()
        try:
            crashed, crash_seconds = _run(typed, scripts,
                                          _remote_config(addresses,
                                                         jobs=4))
        finally:
            assassin.cancel()
    assert verdict_keys(crashed) == reference, \
        "verdicts moved after a worker was killed mid-run"

    print()
    print(f"corpus        {total_vcs} VCs, "
          f"{serial.auto_percent:.1f}% auto")
    print(f"serial        {serial_seconds:.1f} s (in-process reference)")
    print(f"1 worker      {one_seconds:.1f} s")
    print(f"4 workers     {four_seconds:.1f} s "
          f"(scaling {scaling:.2f}x over 1 worker)")
    print(f"warm cache    cold {cold_seconds:.1f} s, "
          f"warm {warm_seconds:.1f} s (speedup {warm_speedup:.1f}x)")
    print(f"worker loss   {crash_seconds:.1f} s "
          f"(1 of 2 workers SIGKILLed mid-run)")
    print("differential  every farm shape == serial reference")
    record("farm", {
        "min_speedup": _MIN_SPEEDUP,
        "min_warm_speedup": _MIN_WARM_SPEEDUP,
        "total_vcs": total_vcs,
        "serial_seconds": round(serial_seconds, 3),
        "one_worker_seconds": round(one_seconds, 3),
        "four_worker_seconds": round(four_seconds, 3),
        "scaling_speedup": round(scaling, 3),
        "cold_cache_seconds": round(cold_seconds, 3),
        "warm_cache_seconds": round(warm_seconds, 3),
        "warm_speedup": round(warm_speedup, 1),
        "worker_loss_seconds": round(crash_seconds, 3),
    })

    assert scaling >= _MIN_SPEEDUP, (
        f"4-worker scaling {scaling:.2f}x below the "
        f"{_MIN_SPEEDUP}x floor over 1 worker")
    assert warm_speedup >= _MIN_WARM_SPEEDUP, (
        f"warm-cache speedup {warm_speedup:.2f}x below the "
        f"{_MIN_WARM_SPEEDUP}x floor")
