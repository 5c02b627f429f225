"""The replay-vs-recheck decision (DESIGN.md §15).

Given the previous run's manifest and the (possibly edited) typed
package, :func:`plan_incremental` decides, per requested subprogram:

* **replay** -- the manifest has an entry whose ``cone_fp`` matches the
  current cone fingerprint *and* every one of its scheduler-bound VC
  verdicts is still present in the :class:`~repro.exec.ResultCache`
  under its recorded key.  The subprogram skips examination entirely:
  its analysis scalars and verdicts are reconstructed from the manifest
  and the cache.
* **recheck** -- anything else: no manifest entry (new subprogram), a
  changed cone (the edit, or anything it transitively touches), or any
  evicted cache entry.  The subprogram runs the ordinary
  examine-then-schedule path.  The decision is all-or-nothing per
  subprogram -- a single missing verdict re-examines the whole
  subprogram, because partial replay would need the examiner anyway.

Cache probing happens *before* committing to replay, so a torn manifest
or an evicted entry can only ever cost a re-proof, never produce a
wrong or missing verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..exec.events import STORE_MISS
from ..exec.obligation import _decode_vc_result
from ..lang.typecheck import TypedPackage
from ..vcgen.examiner import SubprogramAnalysis, VCRecord
from .fingerprint import cone_fingerprints

__all__ = ["IncrementalStats", "ReplayedSubprogram", "plan_incremental"]


@dataclass
class IncrementalStats:
    """What the incremental planner did, for telemetry and reports."""

    replayed_vcs: int = 0          # verdicts served from the manifest
    rechecked_vcs: int = 0         # VCs through examine + discharge
    manifest_miss: int = 0         # 1: no usable manifest (cold run)
    replayed_subprograms: int = 0
    rechecked_subprograms: int = 0
    #: Subprograms whose cone matched but fell back to a re-check
    #: because at least one recorded verdict was gone from the cache.
    evicted_fallbacks: int = 0

    def to_json(self) -> dict:
        return {
            "incr_replayed": self.replayed_vcs,
            "incr_rechecked": self.rechecked_vcs,
            "incr_manifest_miss": self.manifest_miss,
            "incr_replayed_subprograms": self.replayed_subprograms,
            "incr_rechecked_subprograms": self.rechecked_subprograms,
            "incr_evicted_fallbacks": self.evicted_fallbacks,
        }


@dataclass
class ReplayedSubprogram:
    """One subprogram reconstructed without examination.  ``outcomes``
    are :class:`~repro.prover.session.VCOutcome` instances carrying the
    same stage/result pairs a cold run would have produced."""

    analysis: SubprogramAnalysis
    outcomes: List[object] = field(default_factory=list)


def _replay_one(entry: dict, name: str, cache) -> \
        Optional[Tuple[SubprogramAnalysis, List[object], bool]]:
    """Reconstruct one subprogram from its manifest entry, or ``None``
    (with ``evicted=True`` in the third slot distinguished by the
    caller) when any recorded verdict is no longer cached."""
    from ..prover.session import VCOutcome   # import cycle: session->plan
    probed = []
    for row in entry["vcs"]:
        if not isinstance(row, dict):
            return None
        if row.get("simplifier"):
            probed.append((row, "simplifier", None))
            continue
        key = row.get("cache_key")
        if not isinstance(key, str) or cache is None:
            return None
        hit, value = cache.get(key, decode=_decode_vc_result)
        if not hit:
            return None
        stage, result = value
        probed.append((row, stage, result))
    analysis = SubprogramAnalysis(
        name=name, feasible=True,
        generated_bytes=int(entry.get("generated_bytes", 0)),
        simplified_bytes=int(entry.get("simplified_bytes", 0)),
        work_units=int(entry.get("work_units", 0)),
        fixpoint_exhausted=int(entry.get("fixpoint_exhausted", 0)))
    outcomes = []
    for row, stage, result in probed:
        vc = VCRecord(
            name=row["name"], subprogram=name, kind=row["kind"],
            generated_bytes=int(row.get("generated_bytes", 0)),
            simplified_bytes=int(row.get("simplified_bytes", 0)),
            discharged_by_simplifier=bool(row.get("simplifier")),
            # Replayed VCs carry no term: the whole point is that the
            # examiner never ran.  Nothing downstream reads .simplified
            # for a replayed VC (verdicts and byte counts are recorded).
            simplified=None)
        analysis.vcs.append(vc)
        outcomes.append(VCOutcome(vc=vc, stage=stage, result=result))
    return analysis, outcomes, True


def plan_incremental(manifest: Optional[dict], typed: TypedPackage,
                     names: Sequence[str], cache, telemetry=None
                     ) -> Tuple[Dict[str, ReplayedSubprogram],
                                IncrementalStats]:
    """Split ``names`` into replayable and re-checkable subprograms.

    ``manifest`` is the (already scope-validated) manifest dict or
    ``None``; ``cache`` the resolved :class:`~repro.exec.ResultCache`
    (or ``None`` when caching is disabled, which disables replay).
    Returns ``(replayed, stats)``; every name absent from ``replayed``
    must be re-examined.  ``stats.rechecked_vcs`` is left at zero --
    the session fills it in once the re-examined VCs are counted.
    With ``telemetry``, each evicted fallback is recorded as a
    ``store_miss`` event with detail ``evicted``.
    """
    stats = IncrementalStats()
    replayed: Dict[str, ReplayedSubprogram] = {}
    if manifest is None:
        stats.manifest_miss = 1
        stats.rechecked_subprograms = len(names)
        return replayed, stats
    cones = cone_fingerprints(typed)
    entries = manifest["subprograms"]
    for name in names:
        entry = entries.get(name)
        if entry is None or entry.get("cone_fp") != cones.get(name):
            stats.rechecked_subprograms += 1
            continue
        try:
            rebuilt = _replay_one(entry, name, cache)
        except (KeyError, TypeError, ValueError):
            rebuilt = None   # malformed entry: degrade, never crash
        if rebuilt is None:
            stats.rechecked_subprograms += 1
            stats.evicted_fallbacks += 1
            if telemetry is not None:
                telemetry.record(STORE_MISS, "manifest", name,
                                 detail="evicted")
            continue
        analysis, outcomes, _ = rebuilt
        replayed[name] = ReplayedSubprogram(analysis=analysis,
                                            outcomes=outcomes)
        stats.replayed_subprograms += 1
        stats.replayed_vcs += len(outcomes)
    return replayed, stats
