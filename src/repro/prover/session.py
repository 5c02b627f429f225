"""The implementation-proof session.

Runs the full SPARK-style pipeline for a package: examine (generate +
simplify VCs), then discharge each VC automatically, then apply any
supplied interactive proof scripts to the survivors.  The result carries
exactly the quantities section 6.2.3 of the paper reports: total VCs,
percentage discharged automatically, subprograms fully automatic, the
maximum length of VCs needing human intervention, and wall/simulated time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..exec import VCPayload, package_fingerprint, vc_obligation
from ..exec import events as ev
from ..exec.config import ExecConfig, coerce_exec_config
from ..incr.fingerprint import cone_fingerprints
from ..incr.manifest import coerce_manifest_store, run_config_digest
from ..incr.plan import IncrementalStats, plan_incremental
from ..lang.typecheck import TypedPackage
from ..logic import NormalizationCache, Term, fingerprint
from ..vcgen import Examiner, ExaminerLimits, ExaminerReport, VCRecord
from .auto import AutoProver, ProofResult
from .tactics import InteractiveProver, ProofScript

__all__ = ["VCOutcome", "ImplementationProofResult", "ImplementationProof",
           "discharge_vc"]


def discharge_vc(typed: TypedPackage, subprogram: str, term: Term,
                 scripts: Sequence[ProofScript] = (),
                 auto_timeout: Optional[float] = None, shared=None,
                 on_retire: Optional[Callable[[AutoProver], None]] = None
                 ) -> Tuple[str, Optional[ProofResult]]:
    """Discharge one VC: the automatic prover, then ``scripts`` in order,
    else ``undischarged``.  Returns ``(stage, ProofResult-or-None)``.

    This is the ``vc`` obligation's one body: the session's inline thunk
    and :meth:`~repro.exec.payload.VCPayload.run` both call it, and a
    payload carries exactly its inputs.  Provers are constructed *per
    VC*: an instance accumulates search history (fresh-name counters,
    per-term memos) that would make this VC's verdict depend on which
    siblings ran earlier on the same instance, and the farm's workers
    each see a different sibling history than the serial order.  The
    interactive prover is built only when scripts exist.  ``shared`` is
    the cross-obligation :class:`~repro.logic.NormalizationCache`: a
    cached normal form is a pure function of (rules, term), so warmth
    moves wall clock, never verdicts.  ``on_retire`` receives each auto
    prover as it retires (the auto prover's, then the scripts'), for
    the hot-path counters."""
    prover = AutoProver(typed, subprogram_name=subprogram,
                        timeout_seconds=auto_timeout, shared=shared)
    result = prover.prove(term)
    if on_retire is not None:
        on_retire(prover)
    if result.proved:
        return "auto", result
    if not scripts:
        return "undischarged", None
    interactive = InteractiveProver(typed, subprogram_name=subprogram,
                                    shared=shared)
    try:
        for script in scripts:
            result = interactive.run_script(term, script)
            if result.proved:
                return "interactive", result
        return "undischarged", result
    finally:
        if on_retire is not None:
            on_retire(interactive.auto)


@dataclass
class VCOutcome:
    vc: VCRecord
    stage: str   # 'simplifier', 'auto', 'interactive', 'undischarged'
    result: Optional[ProofResult] = None


@dataclass
class ImplementationProofResult:
    report: ExaminerReport
    outcomes: List[VCOutcome]
    wall_seconds: float
    #: Populated only by incremental sessions (DESIGN.md §15): how many
    #: verdicts replayed from the manifest vs went through the full
    #: examine-and-discharge path.
    incremental: Optional[IncrementalStats] = None

    @property
    def feasible(self) -> bool:
        return self.report.feasible

    @property
    def total_vcs(self) -> int:
        return len(self.outcomes)

    @property
    def auto_discharged(self) -> int:
        return sum(1 for o in self.outcomes
                   if o.stage in ("simplifier", "auto"))

    @property
    def interactive_discharged(self) -> int:
        return sum(1 for o in self.outcomes if o.stage == "interactive")

    @property
    def undischarged(self) -> List[VCOutcome]:
        return [o for o in self.outcomes if o.stage == "undischarged"]

    @property
    def auto_percent(self) -> float:
        if not self.outcomes:
            return 100.0
        return 100.0 * self.auto_discharged / self.total_vcs

    @property
    def all_proved(self) -> bool:
        return self.feasible and not self.undischarged

    def fully_automatic_subprograms(self) -> List[str]:
        by_sp: Dict[str, bool] = {}
        for o in self.outcomes:
            name = o.vc.subprogram
            by_sp.setdefault(name, True)
            if o.stage not in ("simplifier", "auto"):
                by_sp[name] = False
        return sorted(n for n, auto in by_sp.items() if auto)

    @property
    def max_interactive_vc_lines(self) -> int:
        """Longest VC (in estimated lines) that needed human intervention."""
        lines = [o.vc.simplified_bytes // 40 + 1 for o in self.outcomes
                 if o.stage in ("interactive", "undischarged")]
        return max(lines, default=0)

    def undischarged_kinds(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for o in self.undischarged:
            out[o.vc.kind] = out.get(o.vc.kind, 0) + 1
        return out


class ImplementationProof:
    """Discharges all VCs of a package: the Echo implementation proof.

    Discharge runs through the obligation scheduler
    (:mod:`repro.exec`): one obligation per VC that survives the
    simplifier, grouped by subprogram so that the per-subprogram prover
    state (memo caches, fresh-name counters) sees its VCs serially and in
    order even when ``jobs > 1`` -- ``jobs=1`` therefore reproduces the
    historical serial run bit for bit, and ``jobs=N`` fans subprograms
    out across worker processes (``backend='process'``: each obligation
    also carries a :class:`~repro.exec.payload.VCPayload` holding the
    inputs of the same :func:`discharge_vc` call).  Results are cached
    content-addressed on (package text, subprogram, VC term, prover
    configuration), so re-verifying unchanged code is a replay, not a
    re-proof.
    """

    #: The automatic prover gives up after this long per VC and hands the
    #: VC to the interactive scripts (real provers run with a timeout; the
    #: paper's automatic/interactive boundary presumes one).
    AUTO_TIMEOUT_SECONDS = 3.0
    INTERACTIVE_TIMEOUT_SECONDS = 30.0

    def __init__(self, typed: TypedPackage,
                 limits: Optional[ExaminerLimits] = None,
                 scripts: Optional[Dict[str, Sequence[ProofScript]]] = None,
                 exec: Optional[ExecConfig] = None,
                 norm_cache: Optional[NormalizationCache] = None,
                 manifest=None,
                 incremental: bool = False):
        """``scripts`` maps a subprogram name to the proof scripts to try,
        in order, on each of its undischarged VCs.  ``exec`` configures the
        obligation scheduler (backend, jobs, cache, telemetry, per-VC
        timeout -- overruns map to ``undischarged``); the PR-3 era
        ``jobs``/``cache``/``telemetry``/``obligation_timeout`` shims are
        gone and raise ``TypeError``.  ``norm_cache`` optionally supplies a
        caller-owned :class:`~repro.logic.NormalizationCache` so warm
        normal forms survive beyond this session (the serve layer keeps
        one per tenant namespace across requests); by default the session
        owns a fresh one, the historical behaviour.

        ``manifest`` (a :class:`~repro.incr.ManifestStore` or a directory
        path) makes the session persist a run manifest after each run;
        ``incremental=True`` additionally consults it *before* the run,
        replaying verdicts for subprograms whose cone fingerprint is
        unchanged straight from the result cache (DESIGN.md §15).
        Incremental mode without a manifest store is a contradiction and
        fails loudly."""
        self.typed = typed
        self.limits = limits
        self.scripts = scripts or {}
        self.manifest = coerce_manifest_store(manifest)
        self.incremental = bool(incremental)
        if self.incremental and self.manifest is None:
            raise ValueError("incremental=True requires manifest= "
                             "(a ManifestStore or a directory path)")
        self.exec = coerce_exec_config(exec, owner="ImplementationProof")
        #: Cross-obligation normalization cache (DESIGN.md §13): one per
        #: proof session unless the caller shares one.  The examiner warms
        #: it while simplifying and the inline per-VC provers reuse it;
        #: process and farm workers use their own process-wide cache
        #: (nothing is shipped to them).  Keys are fingerprint-scoped
        #: (``simplifier_rules_key``), so sharing across sessions is sound
        #: for any mix of packages.
        self._norm_cache = norm_cache if norm_cache is not None \
            else NormalizationCache()

    def run(self, subprogram_names: Optional[Sequence[str]] = None
            ) -> ImplementationProofResult:
        started = time.perf_counter()
        names = list(subprogram_names) if subprogram_names is not None \
            else [sp.name for sp in self.typed.package.subprograms]
        config = self._prover_config()

        # Incremental planning: replayable subprograms skip examination
        # entirely; everything else runs the ordinary path below.
        replayed = {}
        incr_stats: Optional[IncrementalStats] = None
        previous = None
        config_digest = None
        if self.manifest is not None:
            config_digest = run_config_digest(config, self.limits)
        if self.incremental:
            telemetry = self.exec.resolved_telemetry()
            previous = self.manifest.load(self.typed.package.name,
                                          config_digest, telemetry)
            replayed, incr_stats = plan_incremental(
                previous, self.typed, names, self.exec.resolved_cache(),
                telemetry)

        check_names = [n for n in names if n not in replayed]
        examiner = Examiner(self.typed, limits=self.limits,
                            shared=self._norm_cache)
        report = examiner.examine(check_names)

        package_fp = package_fingerprint(self.typed)
        #: Per-subprogram rewriting instrumentation folded out of the
        #: per-VC provers as they retire (the provers themselves are
        #: constructed and discarded inside each discharge thunk).
        hotpath: Dict[str, Dict[str, int]] = {}

        # Assemble the outcome list as slots so simplifier-discharged VCs
        # keep their historical interleaved positions.
        slots: List[Tuple[str, object]] = []
        obligations = []
        vc_records: List[VCRecord] = []
        for analysis in report.per_subprogram.values():
            for vc in analysis.vcs:
                if vc.discharged_by_simplifier:
                    slots.append(("done", VCOutcome(vc=vc,
                                                    stage="simplifier")))
                    continue
                payload = VCPayload(
                    package=self.typed.package, package_fp=package_fp,
                    subprogram=vc.subprogram,
                    term=vc.simplified.simplified,
                    scripts=tuple(self.scripts.get(vc.subprogram, ())),
                    auto_timeout=self.AUTO_TIMEOUT_SECONDS)
                obligations.append(vc_obligation(
                    vc, self._discharger(payload, hotpath),
                    package_fp=package_fp, config=config, payload=payload))
                vc_records.append(vc)
                slots.append(("ob", len(obligations) - 1))

        results = self.exec.scheduler().run(obligations)

        # Fold prover-side hot-path instrumentation back into the report:
        # the interesting rewriting (per-VC fresh simplifiers hitting the
        # cross-obligation cache) happens during discharge, after the
        # examiner's numbers were taken.  Parent-side provers only -- the
        # process backend's counters live and die in its workers.
        for name, counters in hotpath.items():
            analysis = report.per_subprogram.get(name)
            if analysis is None:
                continue
            analysis.index_hits += counters["index_hits"]
            analysis.index_skipped_rules += counters["index_skipped_rules"]
            analysis.cross_vc_hits += counters["cross_vc_hits"]

        outcomes: List[VCOutcome] = []
        #: Subprograms with at least one scheduler-level failure (timeout,
        #: recorded error, crash): their verdicts were never cached, so
        #: they must not enter the manifest as replayable.
        unclean: set = set()
        for tag, payload in slots:
            if tag == "done":
                outcomes.append(payload)
                continue
            result = results[payload]
            record = vc_records[payload]
            if result.ok:
                stage, proof_result = result.value
                outcomes.append(VCOutcome(vc=record, stage=stage,
                                          result=proof_result))
            else:
                # Scheduler-level timeout (or recorded error): the VC is
                # honestly undischarged rather than crashing the run.
                unclean.add(record.subprogram)
                outcomes.append(VCOutcome(
                    vc=record, stage="undischarged",
                    result=ProofResult(False, result.status,
                                       detail=result.error or "")))

        if incr_stats is not None:
            incr_stats.rechecked_vcs = len(outcomes)
            self._record_replays(replayed)

        # Merge checked and replayed subprograms back into request order
        # (== declaration order for a full run), so the incremental result
        # is positionally identical to a cold one.
        merged_per: Dict[str, object] = {}
        by_subprogram: Dict[str, List[VCOutcome]] = {}
        for outcome in outcomes:
            by_subprogram.setdefault(outcome.vc.subprogram,
                                     []).append(outcome)
        merged_outcomes: List[VCOutcome] = []
        for name in names:
            if name in replayed:
                merged_per[name] = replayed[name].analysis
                merged_outcomes.extend(replayed[name].outcomes)
            else:
                merged_per[name] = report.per_subprogram[name]
                merged_outcomes.extend(by_subprogram.get(name, []))
        merged_report = ExaminerReport(per_subprogram=merged_per,
                                       wall_seconds=report.wall_seconds)

        if self.manifest is not None:
            self._save_manifest(names, replayed, previous, report,
                                vc_records, obligations, unclean,
                                package_fp, config_digest)

        return ImplementationProofResult(
            report=merged_report,
            outcomes=merged_outcomes,
            wall_seconds=time.perf_counter() - started,
            incremental=incr_stats,
        )

    def _record_replays(self, replayed) -> None:
        """Mirror the scheduler's cache-hit telemetry for replayed VCs:
        one submitted/cached pair per scheduler-bound VC, tagged so the
        counters distinguish manifest replay from ordinary warm hits."""
        telemetry = self.exec.resolved_telemetry()
        for name, entry in replayed.items():
            for outcome in entry.outcomes:
                if outcome.vc.discharged_by_simplifier:
                    continue
                label = f"{name}/{outcome.vc.name}"
                telemetry.record(ev.SUBMITTED, "vc", label,
                                 detail="incremental")
                telemetry.record(ev.CACHED, "vc", label,
                                 detail="incremental_replay")

    def _save_manifest(self, names, replayed, previous, report,
                       vc_records, obligations, unclean,
                       package_fp: str, config_digest: str) -> None:
        """Persist the post-run manifest: replayed subprograms carry
        their previous entries forward verbatim (their recorded cache
        keys, under the *old* package fingerprint, are exactly what makes
        them replayable again); freshly checked subprograms enter only
        when their analysis was feasible and every scheduled VC actually
        produced (and cached) a verdict."""
        key_by_vc = {id(vc): ob.cache_key
                     for vc, ob in zip(vc_records, obligations)}
        old_entries = (previous or {}).get("subprograms", {})
        cones = cone_fingerprints(self.typed)
        entries: Dict[str, dict] = {}
        for name in names:
            if name in replayed:
                entries[name] = old_entries[name]
                continue
            analysis = report.per_subprogram[name]
            if not analysis.feasible or name in unclean:
                continue
            rows = []
            for vc in analysis.vcs:
                rows.append({
                    "name": vc.name,
                    "kind": vc.kind,
                    "generated_bytes": vc.generated_bytes,
                    "simplified_bytes": vc.simplified_bytes,
                    "simplifier": vc.discharged_by_simplifier,
                    "term_fp": fingerprint(vc.simplified.simplified),
                    "cache_key": None if vc.discharged_by_simplifier
                    else key_by_vc[id(vc)],
                })
            entries[name] = {
                "cone_fp": cones[name],
                "generated_bytes": analysis.generated_bytes,
                "simplified_bytes": analysis.simplified_bytes,
                "work_units": analysis.work_units,
                "fixpoint_exhausted": analysis.fixpoint_exhausted,
                "vcs": rows,
            }
        self.manifest.save(self.typed.package.name, package_fp,
                           config_digest, entries)

    def _prover_config(self) -> str:
        """Cache-key component for everything that shapes a VC's outcome
        besides the VC term and package text."""
        parts = [f"auto_timeout={self.AUTO_TIMEOUT_SECONDS}"]
        for name in sorted(self.scripts):
            names = ",".join(f"{s.name}:{s.steps}"
                             for s in self.scripts[name])
            parts.append(f"scripts[{name}]={names}")
        return ";".join(parts)

    def _discharger(self, payload: VCPayload,
                    hotpath: Dict[str, Dict[str, int]]):
        """The inline thunk for one VC: :func:`discharge_vc` on the
        payload's own inputs, with this session's typed package and
        normalization cache, folding hot-path counters into ``hotpath``
        as each prover retires (dischargers run on the scheduler's
        calling thread)."""

        def fold(prover: AutoProver) -> None:
            acc = hotpath.setdefault(payload.subprogram, {
                "index_hits": 0, "index_skipped_rules": 0,
                "cross_vc_hits": 0})
            for key, value in prover.hotpath_counters().items():
                acc[key] += value

        return lambda: discharge_vc(
            self.typed, payload.subprogram, payload.term, payload.scripts,
            payload.auto_timeout, shared=self._norm_cache, on_retire=fold)
