"""The layer map of the ledger: which public entry points of ``repro``
make up each named layer, and the counters observed at their boundaries.

Targets use :func:`trace.resolve` syntax.  Each layer is reported as
``<layer>.self_s`` and ``<layer>.calls`` (per timed operation); the
extra counters below are derived from the calls' arguments and results.
"""

LAYERS = {
    "lang.parse": ["repro.lang.parser:parse_package"],
    "lang.analyze": ["repro.lang.typecheck:analyze"],
    "vcgen.examine": ["repro.vcgen.examiner:Examiner.examine"],
    "vcgen.wp": ["repro.vcgen.wp:generate_obligations"],
    "vcgen.simplify": ["repro.vcgen.simplifier:Simplifier.simplify"],
    "prover.session": ["repro.prover.session:ImplementationProof.run"],
    "prover.auto": ["repro.prover.auto:AutoProver.prove"],
    "prover.tactics": ["repro.prover.tactics:InteractiveProver.run_script"],
    "metrics.complexity": ["repro.metrics.complexity:complexity_metrics"],
    "metrics.elements": ["repro.metrics.elements:element_metrics"],
    "extract.match": ["repro.extract.skeleton:extract_skeleton",
                      "repro.extract.matchratio:match_ratio"],
    "plan.search": ["repro.plan.search:Planner.plan"],
    "plan.enumerate": ["repro.plan.candidates:enumerate_candidates"],
    "plan.evaluate": ["repro.plan.scoring:evaluate_candidate"],
    # Every library and catalog transformation overrides ``apply``; the
    # catalog's classes must be imported before instrumenting.
    "refactor.apply": ["repro.refactor.engine:Transformation.apply+"],
    "refactor.validate": ["repro.refactor.engine:RefactoringEngine.apply"],
    "equiv.final_state": ["repro.equiv.model:final_state"],
    "exec.fingerprint": ["repro.exec.cache:package_fingerprint"],
    "exec.schedule": ["repro.exec.scheduler:ObligationScheduler.run"],
    "exec.cache.get": ["repro.exec.cache:ResultCache.get"],
    "exec.cache.put": ["repro.exec.cache:ResultCache.put"],
    "incr.cones": ["repro.incr.fingerprint:cone_fingerprints"],
    "incr.plan": ["repro.incr.plan:plan_incremental"],
    "incr.manifest.load": ["repro.incr.manifest:ManifestStore.load"],
    "incr.manifest.save": ["repro.incr.manifest:ManifestStore.save"],
    "serve.execute": ["repro.serve.service:execute_request"],
    "serve.journal": ["repro.serve.journal:Journal.append_enqueue",
                      "repro.serve.journal:Journal.append_done",
                      "repro.serve.journal:Journal.write_result"],
}

#: Modules whose import defines subclasses or rebinding sites the
#: targets above do not import themselves.
PRELOAD = ["repro.refactor", "repro.plan", "repro.serve.service"]


def _auto_budget(recorder, args, kwargs, result, seconds):
    """A call that gave up unproved after its full wall-clock budget."""
    budget = args[0].timeout_seconds
    if budget is not None and not result.proved and seconds >= budget:
        recorder.add("prover.auto.budget_hits")
        recorder.add("prover.auto.budget_s", seconds)


def _cache_get(recorder, args, kwargs, result, seconds):
    hit, _ = result
    recorder.add("exec.cache.hits" if hit else "exec.cache.misses")


def _schedule(recorder, args, kwargs, result, seconds):
    """Planner evaluations as scheduled: how many ran the probe tier."""
    for obligation in args[1]:
        if obligation.kind != "plan_eval" or obligation.payload is None:
            continue
        recorder.add("plan.scheduled_evaluations")
        if dict(obligation.payload.kwargs).get("probe"):
            recorder.add("plan.scheduled_probes")


OBSERVERS = {
    "prover.auto": _auto_budget,
    "exec.cache.get": _cache_get,
    "exec.schedule": _schedule,
}
