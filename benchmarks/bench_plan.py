"""Automated-planner benchmark: batched farm discovery and warm replans
(DESIGN.md sections 17 and 18).

The acceptance claim of ``repro.plan`` after the batching work has four
legs:

* **discovery** -- from the optimized AES and the FIPS-197 theory, the
  search finds, without human ordering input, a chain of refactorings in
  which every accepted edge carries a semantics-preservation theorem
  over the observables (``Cipher``/``Inv_Cipher``);
* **determinism** -- the chain digest, step tokens, and final source are
  bit-identical between the serial backend and the process farm, *and*
  across batch sizes (per-obligation ``batch_size=1`` versus the default
  batched dispatch): batching changes how obligations travel, never what
  wins;
* **batching economics** -- the batched farm amortizes dispatch
  overhead: per-dispatch latency percentiles (p50/p95) drop against the
  unbatched farm, and a warm replan -- a fresh result cache reading the
  disk tier the batched farm leg wrote -- reruns the whole search
  without computing a single obligation, at least
  ``_MIN_WARM_SPEEDUP`` times faster than the cold serial leg (its
  ratio to the batched farm leg is reported alongside);
* **provability** -- the discovered final program, carried through the
  annotation table and the implementation proof, auto-discharges at
  least ``_MIN_AUTO_PERCENT`` of its VCs (the paper's figure-3 floor:
  93.6%).

Results go to ``BENCH_gates.json`` under ``plan`` (the file records
``cpu_count``, so single-core hosts -- where a process farm cannot beat
wall-clock serial no matter how little it dispatches -- are readable as
such).  Run with ``python -m pytest benchmarks/bench_plan.py -q -s``.
"""

import os
import shutil
import tempfile
import time

from repro.aes.annotations import build_annotated
from repro.aes.proof_scripts import aes_proof_scripts
from repro.aes.refactored import refactored_source
from repro.exec import ExecConfig, ResultCache, Telemetry
from repro.lang import parse_package, print_package
from repro.plan import plan_aes
from repro.prover import ImplementationProof

from benchmarks.gates import record

#: The discovered program must auto-discharge at least this percentage
#: of its implementation-proof VCs (the manual chain's figure-3 floor).
#: Compared at the one-decimal precision the figure is stated at:
#: 437/467 VCs *is* the manual chain's 93.6%, not a miss by 0.02.
_MIN_AUTO_PERCENT = 93.6

#: A replan from a disk-tier result cache must be at least this many
#: times faster than the cold serial discovery.  The serial leg is the
#: reference: the farm leg's speed depends on the host's core count and
#: on how much of the search runs outside the workers, so a ratio to it
#: moves for reasons that have nothing to do with the cache.  The ratio
#: to the batched farm leg is still reported.
_MIN_WARM_SPEEDUP = 10.0

#: Process-farm width for the farm discovery legs.
_FARM_JOBS = max(2, min(8, (os.cpu_count() or 2) - 1))


def _discover(label, config):
    t0 = time.perf_counter()
    result = plan_aes(trials=2, exec=config)
    seconds = time.perf_counter() - t0
    assert result.found, f"{label}: planner did not reach the goal"
    assert result.validations >= result.step_count, \
        f"{label}: chain steps missing theorem validation"
    return result, seconds


def _summary(result, seconds, telemetry):
    ev = result.final_evaluation
    stats = telemetry.stats()
    return {
        "seconds": round(seconds, 1),
        "steps": result.step_count,
        "expansions": result.expansions,
        "evaluations": result.evaluations,
        "validations": result.validations,
        "rejected": len(result.rejected),
        "final_match_percent": round(100.0 * ev.match_fraction, 1),
        "scheduled": stats.total,
        "computed": sum(stats.computed.values()),
        "reused": dict(result.reused),
        "batched_dispatches": stats.batched,
        "batched_items": stats.batch_items,
        "dispatch_p50_ms": round(1e3 * stats.dispatch_p50_seconds, 2),
        "dispatch_p95_ms": round(1e3 * stats.dispatch_p95_seconds, 2),
    }


def _assert_identical(reference, other, label):
    assert reference.chain_digest == other.chain_digest, \
        f"chain digest differs: serial vs {label}"
    assert [s.token for s in reference.steps] == \
        [s.token for s in other.steps], f"step sequences differ ({label})"
    assert reference.final_source == other.final_source, \
        f"final programs differ ({label})"


def bench_plan_discovery():
    legs = {}

    def leg(name, config_kwargs, cache=False):
        telemetry = Telemetry()
        config = ExecConfig(cache=cache, telemetry=telemetry,
                            **config_kwargs)
        result, seconds = _discover(name, config)
        legs[name] = _summary(result, seconds, telemetry)
        reused = legs[name]["reused"]
        print(f"  {name:14s} {seconds:7.1f} s  "
              f"(dispatch p50 {legs[name]['dispatch_p50_ms']} ms, "
              f"batched {legs[name]['batched_dispatches']}, reused "
              f"{reused['probe_subprograms']} probe subprograms / "
              f"{reused['differential_runs']} differential runs)",
              flush=True)
        return result, seconds

    disk = tempfile.mkdtemp(prefix="bench-plan-")
    print("discovery legs:", flush=True)
    serial, serial_s = leg("serial", dict(jobs=1, backend="serial"))
    farm1, farm1_s = leg(
        "farm_batch1", dict(jobs=_FARM_JOBS, backend="process",
                            batch_size=1))
    farm, farm_s = leg(
        "farm_batched", dict(jobs=_FARM_JOBS, backend="process"),
        cache=ResultCache(disk_dir=disk))
    # A new instance: the warm leg reads the disk tier, not memory.
    warm, warm_s = leg(
        "warm_replan", dict(jobs=_FARM_JOBS, backend="process"),
        cache=ResultCache(disk_dir=disk))
    shutil.rmtree(disk, ignore_errors=True)

    # Determinism: bit-identical discovery across backends AND batch
    # sizes AND cache temperature.
    for label, other in (("farm_batch1", farm1), ("farm_batched", farm),
                         ("warm_replan", warm)):
        _assert_identical(serial, other, label)

    # The warm replay must come from the cache, not from re-measuring:
    # every evaluation and every verdict is answered warm, so no
    # obligation is computed (not even a differential trial).
    assert legs["warm_replan"]["computed"] == 0, \
        "warm replan computed obligations (the disk tier did not engage)"

    warm_speedup = serial_s / warm_s if warm_s > 0 else float("inf")
    warm_vs_farm = farm_s / warm_s if warm_s > 0 else float("inf")
    batch_speedup = farm1_s / farm_s if farm_s > 0 else float("inf")

    reached_reference = serial.final_source == \
        print_package(parse_package(refactored_source()))

    # Provability of the discovered program: annotation table +
    # implementation proof, exactly the manual pipeline's final leg.
    typed = build_annotated(serial.final_source)
    t0 = time.perf_counter()
    proof = ImplementationProof(
        typed, scripts=aes_proof_scripts(),
        exec=ExecConfig(jobs=1, backend="serial", cache=False)).run()
    proof_s = time.perf_counter() - t0
    auto = proof.auto_percent

    print()
    print(f"chain digest      {serial.chain_digest} "
          f"(identical across backends, batch sizes, cache temperature)")
    print(f"batching          farm[{_FARM_JOBS}] batched {farm_s:.0f} s "
          f"vs unbatched {farm1_s:.0f} s ({batch_speedup:.2f}x); "
          f"dispatch p50 "
          f"{legs['farm_batched']['dispatch_p50_ms']} ms vs "
          f"{legs['farm_batch1']['dispatch_p50_ms']} ms")
    print(f"warm replan       {warm_s:.1f} s "
          f"({warm_speedup:.1f}x vs cold serial, floor "
          f"{_MIN_WARM_SPEEDUP:.0f}x; {warm_vs_farm:.1f}x vs cold batched "
          f"farm; 0 obligations computed)")
    print(f"final state       match "
          f"{legs['serial']['final_match_percent']}%, "
          f"reference source reached: {reached_reference}")
    print(f"implementation    {proof.total_vcs} VCs, "
          f"auto {auto:.1f}% (floor {_MIN_AUTO_PERCENT}%)")
    record("plan", {
        "min_auto_percent": _MIN_AUTO_PERCENT,
        "min_warm_speedup": _MIN_WARM_SPEEDUP,
        "chain_digest": serial.chain_digest,
        "reached_reference_source": reached_reference,
        "farm_jobs": _FARM_JOBS,
        "warm_replan_speedup": round(warm_speedup, 1),
        "warm_replan_speedup_vs_farm": round(warm_vs_farm, 1),
        "batched_vs_unbatched_farm_speedup": round(batch_speedup, 2),
        "legs": legs,
        "steps": [{"description": s.description, "origin": s.origin,
                   "match_percent": round(s.match_percent, 1)}
                  for s in serial.steps],
        "proof": {
            "total_vcs": proof.total_vcs,
            "auto_percent": round(auto, 2),
            "seconds": round(proof_s, 1),
        },
    })

    assert round(auto, 1) >= _MIN_AUTO_PERCENT, (
        f"discovered program auto-discharges only {auto:.1f}% "
        f"(floor {_MIN_AUTO_PERCENT}%)")
    assert warm_speedup >= _MIN_WARM_SPEEDUP, (
        f"warm replan only {warm_speedup:.1f}x faster than the cold "
        f"serial leg (floor {_MIN_WARM_SPEEDUP}x)")
