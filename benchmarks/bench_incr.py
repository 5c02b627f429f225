"""Incremental re-verification benchmark: edit-aware manifest replay on
the full refactored-AES corpus (DESIGN.md section 15).

One cold serial implementation proof populates the result cache and the
run manifest; then every edit scenario of the acceptance gate runs the
incremental session against a cold serial reference **on the same edited
package, in the same process** (interning order is shared, so the verdict
streams are comparable VC for VC):

* **no edit** -- everything replays, nothing re-checks;
* **body-only** -- a semantics-preserving statement appended to one
  procedure body: only that procedure's cone re-checks.  This is the
  timed leg: the incremental session must beat the cold re-run by at
  least ``_MIN_SPEEDUP``x;
* **spec-only** -- a duplicated postcondition conjunct on one procedure:
  only that cone re-checks;
* **rename-only** -- an uncalled procedure renamed: the signature
  context changes, so *everything* conservatively re-checks (and no
  verdict is ever attributed to a stale name);
* **seeded defect** -- a :mod:`repro.defects` mutation: the defective
  cone re-checks and the incremental verdicts (including the failures)
  match the cold reference.

Results go to ``BENCH_gates.json`` under ``incr``.  Run with
``python -m pytest benchmarks/bench_incr.py -q -s``.
"""

import dataclasses
import random
import tempfile
import time
from pathlib import Path

from repro.aes.annotations import annotated_package
from repro.aes.proof_scripts import aes_proof_scripts
from repro.defects.seeder import random_mutation
from repro.exec import ExecConfig, ResultCache
from repro.incr import ManifestStore, reference_closure
from repro.lang import analyze, ast
from repro.prover import ImplementationProof

from benchmarks.gates import record, verdict_keys

#: A one-procedure body edit must re-verify at least this much faster
#: than the cold serial re-run (the acceptance floor; replaying ~95% of
#: a ~467-VC corpus measures far above it on an idle core).
_MIN_SPEEDUP = 10.0


def _serial(cache):
    return ExecConfig(jobs=1, backend="serial", cache=cache)


def _run(typed, scripts, *, cache=False, manifest=None,
         incremental=False):
    t0 = time.perf_counter()
    result = ImplementationProof(
        typed, scripts=scripts, exec=_serial(cache),
        manifest=manifest, incremental=incremental).run()
    return result, time.perf_counter() - t0


def _invalidation(typed, report):
    """Per subprogram: the VC count re-checked if only it is edited
    (itself plus every subprogram whose reference cone contains it)."""
    closure = reference_closure(typed)
    counts = {name: analysis.vc_count
              for name, analysis in report.per_subprogram.items()}
    return {
        name: sum(counts.get(s, 0)
                  for s, cone in closure.items() if name in cone)
        for name in counts
    }, closure


def _pick_edit_target(typed, report):
    """The procedure whose edit invalidates the fewest VCs (the
    best-case -- and typical -- localized edit)."""
    invalidated, _ = _invalidation(typed, report)
    candidates = [sp.name for sp in typed.package.subprograms
                  if sp.body and invalidated.get(sp.name)]
    return min(candidates, key=lambda n: (invalidated[n], n))


def _pick_uncalled_procedure(typed):
    """A procedure referenced by no other subprogram: safe to rename
    without touching any call site."""
    closure = reference_closure(typed)
    for sp in typed.package.subprograms:
        if sp.return_type is None and not any(
                sp.name in cone for s, cone in closure.items()
                if s != sp.name):
            return sp.name
    raise RuntimeError("no uncalled procedure in the corpus")


def _body_edit(typed, name):
    sp = typed.package.subprogram(name)
    edited = dataclasses.replace(sp, body=(*sp.body, ast.Null()))
    return analyze(typed.package.replace_subprogram(name, edited))


def _spec_edit(typed):
    for sp in typed.package.subprograms:
        if sp.post:
            name = sp.name
            edited = dataclasses.replace(sp, post=(*sp.post, sp.post[-1]))
            return name, analyze(
                typed.package.replace_subprogram(name, edited))
    raise RuntimeError("no annotated subprogram in the corpus")


def _rename_edit(typed, scripts):
    name = _pick_uncalled_procedure(typed)
    renamed = f"{name}_R"
    sp = typed.package.subprogram(name)
    edited = dataclasses.replace(sp, name=renamed)
    new_scripts = dict(scripts)
    if name in new_scripts:
        new_scripts[renamed] = new_scripts.pop(name)
    return name, renamed, analyze(
        typed.package.replace_subprogram(name, edited)), new_scripts


def _scenario(title, typed, scripts, cache, store):
    """Incremental session vs in-process cold reference on the same
    edited package.  Identity is asserted unconditionally: a wrong
    replayed verdict is a correctness bug, not a timing miss."""
    incr, incr_s = _run(typed, scripts, cache=cache, manifest=store,
                        incremental=True)
    cold, cold_s = _run(typed, scripts)
    assert verdict_keys(incr) == verdict_keys(cold), \
        f"{title}: incremental verdicts diverged from the cold reference"
    stats = incr.incremental
    return {
        "incremental_seconds": round(incr_s, 3),
        "cold_seconds": round(cold_s, 3),
        "replayed_vcs": stats.replayed_vcs,
        "rechecked_vcs": stats.rechecked_vcs,
        "replayed_subprograms": stats.replayed_subprograms,
        "rechecked_subprograms": stats.rechecked_subprograms,
        "manifest_miss": stats.manifest_miss,
        "evicted_fallbacks": stats.evicted_fallbacks,
    }


def bench_incremental_reverify():
    typed = annotated_package()
    scripts = aes_proof_scripts()
    cache = ResultCache()

    with tempfile.TemporaryDirectory(prefix="bench-incr-") as tmp:
        store = ManifestStore(Path(tmp) / "manifest")

        # Cold baseline: populates the result cache and the manifest.
        base, base_s = _run(typed, scripts, cache=cache, manifest=store)
        assert base.feasible

        scenarios = {}
        scenarios["no_edit"] = _scenario(
            "no-edit", typed, scripts, cache, store)
        assert scenarios["no_edit"]["rechecked_vcs"] == 0
        assert scenarios["no_edit"]["replayed_vcs"] == base.total_vcs

        # Re-warm (the no-edit leg carried the manifest forward
        # unchanged, so nothing to redo) and run the edit scenarios,
        # each from the *pristine* baseline manifest: the manifest a
        # developer has on disk before the edit.
        target = _pick_edit_target(typed, base.report)
        scenarios["body_only"] = _scenario(
            "body-only", _body_edit(typed, target), scripts, cache, store)
        scenarios["body_only"]["edited"] = target

        # The body leg re-wrote the manifest for the edited text; restore
        # the baseline so each scenario diffs against the same ancestor.
        def rebase():
            _run(typed, scripts, cache=cache, manifest=store)

        rebase()
        spec_target, spec_typed = _spec_edit(typed)
        scenarios["spec_only"] = _scenario(
            "spec-only", spec_typed, scripts, cache, store)
        scenarios["spec_only"]["edited"] = spec_target

        rebase()
        old, new, renamed_typed, renamed_scripts = _rename_edit(
            typed, scripts)
        scenarios["rename_only"] = _scenario(
            "rename-only", renamed_typed, renamed_scripts, cache, store)
        scenarios["rename_only"]["edited"] = f"{old} -> {new}"
        assert scenarios["rename_only"]["replayed_vcs"] == 0, \
            "a rename must never replay verdicts under stale names"

        rebase()
        mutation = random_mutation(typed, random.Random(2009))
        assert mutation is not None
        scenarios["seeded_defect"] = _scenario(
            "seeded-defect", analyze(mutation.package), scripts, cache,
            store)
        scenarios["seeded_defect"]["edited"] = \
            f"{mutation.subprogram} ({mutation.kind})"
        assert scenarios["seeded_defect"]["rechecked_subprograms"] >= 1

    body = scenarios["body_only"]
    speedup = body["cold_seconds"] / body["incremental_seconds"]
    print()
    print(f"corpus            {base.total_vcs} VCs over "
          f"{len(base.report.per_subprogram)} subprograms, "
          f"cold {base_s:.1f} s")
    for title, s in scenarios.items():
        edited = f" [{s['edited']}]" if "edited" in s else ""
        print(f"{title:<17} incr {s['incremental_seconds']:.2f} s vs "
              f"cold {s['cold_seconds']:.1f} s -- "
              f"replayed {s['replayed_vcs']} / "
              f"re-checked {s['rechecked_vcs']} VCs, "
              f"identical{edited}")
    print(f"body-edit speedup {speedup:.1f}x "
          f"(floor {_MIN_SPEEDUP:.0f}x)")
    record("incr", {
        "min_speedup": _MIN_SPEEDUP,
        "corpus": {
            "total_vcs": base.total_vcs,
            "subprograms": len(base.report.per_subprogram),
            "cold_seconds": round(base_s, 3),
            "auto_percent": round(base.auto_percent, 2),
        },
        "body_edit_speedup": round(speedup, 2),
        "scenarios": scenarios,
    })

    assert speedup >= _MIN_SPEEDUP, (
        f"incremental re-check after a one-procedure body edit is "
        f"only {speedup:.1f}x faster than cold (floor "
        f"{_MIN_SPEEDUP:.0f}x)")
