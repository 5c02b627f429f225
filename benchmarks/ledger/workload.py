"""One ledger workload in one fresh process (started by ``run.py``).

    python benchmarks/ledger/workload.py --workload W --seed N \
        --seconds S --trace 0|1 [--setup-only]

The process sets the workload up, writes ``{"ready": true}`` on its
protocol stream (the original standard output; anything the program
under test prints goes to standard error), then runs timed operations
in a closed loop -- each one starts when the previous one has returned
-- for about ``S`` seconds, checks every output against its reference,
and writes ``{"result": {...}}``.  Untraced, the process samples the
host's pace from its start (``pace.py``): the ready message carries the
set-up's pace and the end-to-end times are paced.  With ``--trace 1``
the public entry points of ``repro`` are wrapped (``layers.py``) and
the result carries the per-layer ledger instead.

Every workload is single-process except ``plan_farm``, whose scheduler
forks two workers per scheduling pass; none uses more than two threads,
and ``edit_loop`` runs on one CPU (see ``Workload.one_cpu``).
"""

import argparse
import collections
import contextlib
import dataclasses
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from pace import Pace, paced

ROOT = Path(__file__).resolve().parents[2]
WORK_DIR = ROOT / ".ledger-work"

#: Every run completes at least this many rounds.  A round is one
#: operation, or one edit of every subprogram in ``edit_loop``; whole
#: rounds keep the mix of inputs the same in every run, and the peak RSS
#: is read after this many, so it measures a fixed amount of work.
MIN_ROUNDS = 2

#: Subprograms whose proof runs into the auto prover's wall-clock budget
#: (3 s per give-up) again and again: together 57 s of the 63 s serial
#: implementation proof.  No workload proves them: a give-up lasts 3 s
#: of wall time however fast the host runs, which paced times (see
#: ``pace.py``) would turn into noise, and a full proof is longer than
#: a run.
BUDGET_BOUND = ("Mix_Columns", "Inv_Mix_Columns", "Key_Schedule_128",
                "Key_Schedule_192", "Key_Schedule_256")

# -- references, recorded from the serial reference run ----------------------

#: ``impl_proof``: digest over the sorted (subprogram, vc, kind, stage,
#: proved) rows of one pass, and its stage counts.
IMPL_DIGEST = ("1a691029c983b31ae588f6717886753d"
               "ca7fc5cdbaa38e983c9a0835d857e143")
IMPL_STAGES = {"simplifier": 134, "auto": 61, "interactive": 3}

#: ``plan_serial``/``plan_farm``: the one-expansion search from the
#: optimized AES.  Its chain does not depend on the planner seed (the
#: best validated child wins on score, not on a tie-break), so every
#: search of every run, on either backend, must reproduce it.
PLAN_DIGEST = ("b8e91c59873cba95c968cfca86f51d63"
               "d5e2c0e373fba958fb3114c4cbb9ee52")
PLAN_SHAPE = {"steps": 1, "evaluations": 52, "validations": 12}

#: ``edit_loop``: digest of the cold request's verdict list and its
#: length; every later request must return the same list.
EDIT_DIGEST = ("aeca1e3a61a784fdad48b1fa1896b727"
               "49667571698d389c62640d6d09a4af01")
EDIT_VCS = 198

# -- metric names and units ---------------------------------------------------

#: ``paced_*`` times are at the reference pace of ``pace.py``.
END_TO_END = {
    "paced_latency_p50_ms": "ms",
    "paced_cpu_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics measured beside the spans; 0 where a workload has
#: none.  Each layer of ``layers.LAYERS`` adds ``<layer>.self_s`` and
#: ``<layer>.calls``.
MEASURED = {
    "prover.auto.budget_s": "s/op",
    "prover.auto.budget_hits": "count/op",
    "plan.validated_ratio": "fraction",
    "plan.probe_ratio": "fraction",
    "exec.dispatch_p50_ms": "ms",
    "exec.dispatch_p95_ms": "ms",
    "exec.batched": "count/op",
    "exec.batch_items": "count/op",
    "exec.busy_s": "s/op",
    "exec.worker_cpu_s": "s/op",
    "exec.cache.hit_ratio": "fraction",
    "incr.replayed_ratio": "fraction",
    "serve.queue_ms": "ms",
    "wall_s": "s/op",
    "unattributed.self_s": "s/op",
    "coverage": "fraction",
}


def per_layer_units(layers):
    units = {}
    for layer in layers:
        units[f"{layer}.self_s"] = "s/op"
        units[f"{layer}.calls"] = "count/op"
    units.update(MEASURED)
    return units


def nearest_rank(values, q):
    """Nearest-rank percentile: the smallest sample with at least a
    share ``q`` of the samples at or below it.  The epsilon keeps an
    exact rank such as 0.9 * 10 from rounding up."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _cpu_seconds(*who):
    total = 0.0
    for w in who:
        usage = resource.getrusage(w)
        total += usage.ru_utime + usage.ru_stime
    return total


class Workload:
    """Set-up, then timed operations on inputs made from the seed."""

    #: Operations per round (see :data:`MIN_ROUNDS`).
    round_ops = 1

    #: Whether the process runs on one CPU.  The pace probe runs on the
    #: main thread, so a workload whose work runs on other threads is
    #: pinned, or its work and the probe may run on CPUs the host slows
    #: differently.
    one_cpu = False

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def setup(self):
        raise NotImplementedError

    def prepare(self):
        """The input of the next operation, built outside the timing."""
        raise NotImplementedError

    def op(self, item):
        raise NotImplementedError

    def check(self, item, output):
        """An error message when ``output`` differs from its reference."""
        raise NotImplementedError

    def failures(self) -> int:
        """Non-ok outcomes (timeouts, errors, crashes, quarantines,
        failed requests) so far."""
        stats = self.telemetry.stats()
        return stats.timeouts + stats.errors + stats.crashes \
            + stats.quarantined

    def extras(self, ops):
        """The :data:`MEASURED` metrics the workload keeps itself."""
        stats = self.telemetry.stats()
        return {
            "exec.dispatch_p50_ms": 1e3 * stats.dispatch_p50_seconds,
            "exec.dispatch_p95_ms": 1e3 * stats.dispatch_p95_seconds,
            "exec.batched": stats.batched / ops,
            "exec.batch_items": stats.batch_items / ops,
            "exec.busy_s": stats.busy_seconds / ops,
        }

    def close(self):
        pass


class ImplProof(Workload):
    """The implementation proof (paper section 6.2.3), one pass per
    operation over the package minus :data:`BUDGET_BOUND`, in a seeded
    subprogram order; serial, proof scripts on, no result cache."""

    def setup(self):
        from repro.aes.annotations import annotated_package
        from repro.aes.proof_scripts import aes_proof_scripts
        from repro.exec import Telemetry
        self.typed = annotated_package()
        self.scripts = aes_proof_scripts()
        self.names = [sp.name for sp in self.typed.package.subprograms
                      if sp.name not in BUDGET_BOUND]
        self.telemetry = Telemetry()

    def prepare(self):
        order = list(self.names)
        self.rng.shuffle(order)
        return order

    def op(self, order):
        from repro.exec import ExecConfig
        from repro.prover import ImplementationProof
        config = ExecConfig(jobs=1, backend="serial", cache=False,
                            telemetry=self.telemetry)
        return ImplementationProof(self.typed, scripts=self.scripts,
                                   exec=config).run(order)

    def check(self, order, result):
        rows = sorted((o.vc.subprogram, o.vc.name, o.vc.kind, o.stage,
                       o.result.proved if o.result is not None else None)
                      for o in result.outcomes)
        stages = collections.Counter(row[3] for row in rows)
        if _digest(rows) != IMPL_DIGEST or stages != IMPL_STAGES:
            return (f"impl_proof outcomes differ from the reference: "
                    f"{dict(stages)}")
        return None


class Plan(Workload):
    """One capped planner search per operation: from the optimized AES
    toward FIPS-197, one expansion, two differential trials per theorem,
    default beam and probe width, a planner seed drawn from the run
    seed, no result cache."""

    backend, jobs = "serial", 1

    def setup(self):
        from repro.aes.fips197 import fips197_theory
        from repro.aes.optimized import optimized_source
        from repro.exec import Telemetry
        import repro.plan  # noqa: F401 - the planner's modules
        fips197_theory()        # memoized inputs every search reads
        optimized_source()
        self.telemetry = Telemetry()
        self.evaluations = self.validations = 0

    def prepare(self):
        return self.rng.randrange(1, 2**31)

    def op(self, planner_seed):
        from repro.exec import ExecConfig
        from repro.plan import plan_aes
        config = ExecConfig(jobs=self.jobs, backend=self.backend,
                            cache=False, telemetry=self.telemetry)
        return plan_aes(trials=2, seed=planner_seed, exec=config,
                        max_expansions=1)

    def check(self, planner_seed, result):
        self.evaluations += result.evaluations
        self.validations += result.validations
        shape = {"steps": result.step_count,
                 "evaluations": result.evaluations,
                 "validations": result.validations}
        if result.chain_digest != PLAN_DIGEST or shape != PLAN_SHAPE:
            return (f"planner seed {planner_seed}: chain "
                    f"{result.chain_digest[:16]} {shape} differs from "
                    f"the reference")
        return None

    def extras(self, ops):
        out = super().extras(ops)
        out["plan.validated_ratio"] = self.validations / self.evaluations
        return out


class PlanFarm(Plan):
    """The same searches on the process backend with two workers and
    default batching: the work is identical, so any difference from
    ``plan_serial`` is dispatch, wire and pickling."""

    backend, jobs = "process", 2


class EditLoop(Workload):
    """A developer's edit loop against an in-process durable
    ``VerificationService``.  Set-up proves the package (minus
    :data:`BUDGET_BOUND`) cold with ``incremental: true``; each
    operation appends one more ``null;`` to one subprogram of the
    working copy and sends it as an incremental ``prove`` request.  The
    edited subprogram runs through seeded permutations of all of them,
    so every run edits each one about equally often."""

    one_cpu = True      # the service proves on its own worker thread

    def setup(self):
        import asyncio
        from repro.aes.annotations import annotated_package
        from repro.exec import ExecConfig
        from repro.lang import print_package
        from repro.serve.config import ServeConfig
        from repro.serve.service import VerificationService
        self.package = annotated_package().package
        self.names = [sp.name for sp in self.package.subprograms
                      if sp.name not in BUDGET_BOUND]
        self.round_ops = len(self.names)
        self.pending = []
        self.failed = 0
        self.queue_s = []
        self.busy_s = 0.0
        self.replayed = self.rechecked = 0
        self.state_dir = WORK_DIR / f"edit-{os.getpid()}"
        self.loop = asyncio.new_event_loop()
        self.service = VerificationService(ServeConfig(
            state_dir=self.state_dir, lanes={"interactive": 1, "bulk": 0},
            default_exec=ExecConfig(jobs=1, backend="serial")))
        self.loop.run_until_complete(self.service.start())
        cold = self.op(print_package(self.package))
        if cold["status"] != "ok":
            raise RuntimeError(f"edit_loop cold request: {cold['error']}")
        self.reference = cold["result"]["verdicts"]
        rows = [list(v.values()) for v in self.reference]
        if _digest(rows) != EDIT_DIGEST or len(rows) != EDIT_VCS:
            raise RuntimeError("edit_loop cold verdicts differ from the "
                               "reference")

    def prepare(self):
        from repro.lang import ast, print_package
        if not self.pending:
            self.pending = list(self.names)
            self.rng.shuffle(self.pending)
        name = self.pending.pop()
        sp = self.package.subprogram(name)
        self.package = self.package.replace_subprogram(
            name, dataclasses.replace(sp, body=(*sp.body, ast.Null())))
        return print_package(self.package)

    async def _prove(self, source):
        accepted = await self.service.submit({
            "kind": "prove", "lane": "interactive",
            "package": {"source": source}, "subprograms": self.names,
            "incremental": True})
        return await self.service.wait(accepted["id"])

    def op(self, source):
        return self.loop.run_until_complete(self._prove(source))

    def check(self, source, message):
        if message["status"] != "ok":
            self.failed += 1
            return f"edit_loop request failed: {message.get('error')}"
        stats = message["exec_stats"]
        self.failed += bool(stats["timeouts"] or stats["errors"]
                            or stats["failures"]["crashed"]
                            or stats["failures"]["quarantined"])
        self.queue_s.append(message["queue_seconds"])
        self.busy_s += stats["busy_seconds"]
        incremental = message["result"]["incremental"]
        self.replayed += incremental["incr_replayed"]
        self.rechecked += incremental["incr_rechecked"]
        if message["result"]["verdicts"] != self.reference:
            return "edit_loop verdicts differ from the cold request"
        return None

    def failures(self):
        return self.failed

    def extras(self, ops):
        return {
            "exec.busy_s": self.busy_s / ops,
            "incr.replayed_ratio":
                self.replayed / max(1, self.replayed + self.rechecked),
            "serve.queue_ms": 1e3 * nearest_rank(self.queue_s, 0.50),
        }

    def close(self):
        self.loop.run_until_complete(self.service.stop())
        self.loop.close()
        shutil.rmtree(self.state_dir, ignore_errors=True)


WORKLOADS = {
    "impl_proof": ImplProof,
    "plan_serial": Plan,
    "plan_farm": PlanFarm,
    "edit_loop": EditLoop,
}


@dataclasses.dataclass
class Timed:
    latencies: list
    cpu: list
    paces: list
    failed: int
    errors: list
    worker_cpu: float
    peak_rss_mb: float


def _peak_rss_mb():
    """High-water RSS of this process or of its largest reaped child."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def run_timed(workload, seconds, recorder=None, pace=None):
    """Closed loop of whole rounds of timed operations for about
    ``seconds``: a round starts only if, at the rate so far, it ends in
    time, and every run completes :data:`MIN_ROUNDS` of them.  With a
    running :class:`pace.Pace`, each operation's pace is kept too."""
    latencies, cpu, paces, errors = [], [], [], []
    failed = rounds = 0
    peak_rss_mb = None
    children = _cpu_seconds(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    while not errors:
        for _ in range(workload.round_ops):
            item = workload.prepare()
            before = workload.failures()
            mark = pace.mark() if pace is not None else None
            cpu0 = _cpu_seconds(resource.RUSAGE_SELF,
                                resource.RUSAGE_CHILDREN)
            t0 = time.perf_counter()
            if recorder is not None:
                recorder.active = True
            try:
                output = workload.op(item)
            finally:
                if recorder is not None:
                    recorder.active = False
            latencies.append(time.perf_counter() - t0)
            cpu.append(_cpu_seconds(resource.RUSAGE_SELF,
                                    resource.RUSAGE_CHILDREN) - cpu0)
            if pace is not None:
                paces.append(pace.since(mark))
            error = workload.check(item, output)
            failed += workload.failures() > before
            if error is not None:
                errors.append(error)
                break
        rounds += 1
        if rounds == MIN_ROUNDS:
            peak_rss_mb = _peak_rss_mb()
        elapsed = time.perf_counter() - started
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            break
    return Timed(latencies, cpu, paces, failed, errors,
                 _cpu_seconds(resource.RUSAGE_CHILDREN) - children,
                 peak_rss_mb if peak_rss_mb is not None else _peak_rss_mb())


def end_to_end(timed):
    """The :data:`END_TO_END` metrics: each operation's times at its own
    pace, then the median over operations."""
    latency = [paced(t, p) for t, p in zip(timed.latencies, timed.paces)]
    cpu = [paced(t, p) for t, p in zip(timed.cpu, timed.paces)]
    return {
        "paced_latency_p50_ms": 1e3 * nearest_rank(latency, 0.50),
        "paced_cpu_s": nearest_rank(cpu, 0.50),
        "peak_rss_mb": timed.peak_rss_mb,
    }


def raw_times(timed):
    """The unpaced medians and the host's median pace, for reading
    beside the paced metrics."""
    return {
        "latency_p50_ms": 1e3 * nearest_rank(timed.latencies, 0.50),
        "cpu_s": nearest_rank(timed.cpu, 0.50),
        "pace_us": 1e6 * statistics.median(timed.paces),
    }


def per_layer(recorder, layers, timed, extras):
    """Self time and calls per operation for every layer, the measured
    counters, and how much of the timed wall the named layers cover."""
    ops, wall = len(timed.latencies), sum(timed.latencies)
    out = {}
    recorded = recorder.layers()
    attributed = 0.0
    for layer in layers:
        self_s, calls = recorded.get(layer, (0.0, 0))
        attributed += self_s
        out[f"{layer}.self_s"] = self_s / ops
        out[f"{layer}.calls"] = calls / ops
    out.update(dict.fromkeys(MEASURED, 0.0))
    counters = recorder.counters()
    out["prover.auto.budget_s"] = \
        counters.get("prover.auto.budget_s", 0.0) / ops
    out["prover.auto.budget_hits"] = \
        counters.get("prover.auto.budget_hits", 0.0) / ops
    out["exec.worker_cpu_s"] = timed.worker_cpu / ops
    hits = counters.get("exec.cache.hits", 0.0)
    lookups = hits + counters.get("exec.cache.misses", 0.0)
    if lookups:
        out["exec.cache.hit_ratio"] = hits / lookups
    scheduled = counters.get("plan.scheduled_evaluations", 0.0)
    if scheduled:
        out["plan.probe_ratio"] = \
            counters.get("plan.scheduled_probes", 0.0) / scheduled
    out.update(extras)
    unattributed = max(0.0, wall - attributed)
    out["wall_s"] = wall / ops
    out["unattributed.self_s"] = unattributed / ops
    out["coverage"] = 1.0 - unattributed / wall
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    protocol = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def emit(message):
        protocol.write(json.dumps(message) + "\n")
        protocol.flush()

    workload = WORKLOADS[args.workload](args.seed)
    if workload.one_cpu:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    recorder = pace = None
    instrumented = contextlib.nullcontext()
    if args.trace:
        # The traced run reports raw per-layer times and leaves the pace
        # probe out, so no span holds probe time.
        import trace
        from layers import LAYERS, OBSERVERS, PRELOAD
        for module in PRELOAD:
            importlib.import_module(module)
        recorder = trace.Recorder()
        instrumented = trace.instrument(recorder, LAYERS, OBSERVERS)
    else:
        pace = Pace()
        pace.start()
    try:
        with instrumented:
            workload.setup()
            emit({"ready": True,
                  "pace": pace.since(0) if pace is not None else None})
            if args.setup_only:
                workload.close()
                return 0
            try:
                timed = run_timed(workload, args.seconds, recorder, pace)
                extras = workload.extras(len(timed.latencies))
            finally:
                workload.close()
    finally:
        if pace is not None:
            pace.stop()
    if recorder is None:
        metrics, units = end_to_end(timed), END_TO_END
        raw = raw_times(timed)
    else:
        metrics = per_layer(recorder, LAYERS, timed, extras)
        units, raw = per_layer_units(LAYERS), {}
    emit({"result": {
        "attempted": len(timed.latencies), "failed": timed.failed,
        "errors": timed.errors,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "raw": raw,
    }})
    return 0


if __name__ == "__main__":
    sys.exit(main())
