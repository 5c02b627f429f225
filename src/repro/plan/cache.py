"""The persistent plan cache: probe scores and theorem verdicts on disk.

Replanning is dominated by re-measuring candidate states the previous
run already measured and re-proving edges the previous run already
proved: the planner's frontier is deterministic, so a second run over
the same program re-requests the *same* obligations.  A
:class:`PlanCache` makes those replays warm across processes --
``python -m repro.plan --plan-cache plan.json`` twice runs the whole
search the second time without scheduling a single evaluation.

One :mod:`~repro.exec.durable` record, schema ``repro-plan-cache/v2``
(``v1`` named the scope field ``scoring``)::

    {
      "schema": "repro-plan-cache/v2",
      "scope": "<sha256 scoring-config digest>",
      "evaluations": {"<obligation cache key>": {...StateEvaluation...}},
      "validations": {"<edge key>": {"ok": bool, "reason": "..."}}
    }

**Keys.**  Evaluation entries reuse the planner's obligation cache key
verbatim -- ``make_key(PLAN_EVAL, parent_fp, candidate_token,
reference_fp, parent_match, tier)`` -- so an entry is scoped to the
exact (candidate program, transformation, probe budget) it measured.
Validation entries key the *edge*: ``make_key("plan_validate",
parent_fp, child_fp, candidate_token, check, trials, seed,
observables)``.  The file-level ``scope`` digest
(:func:`scoring_digest`) covers the run-shaping inputs the per-entry
keys do not: the reference theory, the probe budgets, and the
validation-engine configuration.  :class:`~repro.plan.scoring
.ScoreWeights` are deliberately *not* in the digest -- evaluations
store raw measured components, and scores are recomputed from the
weights at search time, so a weight tweak replans warm.

**Durability.**  Saves are fsynced atomic publications; loading is
defensive by construction (the :mod:`repro.incr.manifest` discipline):
any record miss loads as *empty*, never as an error -- a broken cache
means a cold replan, not a broken plan.  An entry is kept only if it is
well formed: an evaluation that :meth:`StateEvaluation.from_json
<repro.plan.scoring.StateEvaluation.from_json>` accepts, a validation
with a boolean ``ok``.

**Soundness.**  A cached ``ok`` validation lets the planner replay the
edge *mechanically* (apply the transformation, skip the differential
trials) -- sound because validation is a deterministic function of the
keyed inputs, and double-checked anyway: the replayed state's
fingerprint must equal the cached edge's child fingerprint or the
planner falls back to full validation.
"""

from __future__ import annotations

import glob
import os
from pathlib import Path
from typing import Dict, Optional, Union

from ..exec.cache import make_key
from ..exec.durable import load_record, sweep_tmp, write_record
from ..exec.events import STORE_MISS
from .scoring import StateEvaluation

__all__ = ["PLAN_CACHE_SCHEMA", "PlanCache", "scoring_digest"]

PLAN_CACHE_SCHEMA = "repro-plan-cache/v2"


def scoring_digest(reference_fp: str, probe_tree_bytes: int,
                   probe_vcs: int, check: str, trials: int, seed: int,
                   observables) -> str:
    """Digest of the run-shaping inputs that scope every cached entry:
    the reference theory the match ratio measures against, the probe
    budgets, and the validation-engine configuration.  Samplers are not
    capturable here (they are functions); they are assumed deterministic
    in the seed, as the AES case study's are -- use a fresh cache path
    when swapping sampler sets."""
    return make_key(
        "plan-scoring", reference_fp, str(probe_tree_bytes),
        str(probe_vcs), check, str(trials), str(seed),
        repr(list(observables)))


class PlanCache:
    """Load-on-construct, save-on-demand store of plan evaluations and
    validation verdicts, scoped to one scoring-config digest.  With
    ``telemetry``, a load that misses records a ``store_miss`` event."""

    def __init__(self, path: Union[str, os.PathLike], scoring: str,
                 telemetry=None):
        self.path = Path(path)
        self.scoring = scoring
        self._evaluations: Dict[str, dict] = {}
        self._validations: Dict[str, dict] = {}
        self.dirty = False
        #: Warm/cold accounting for telemetry and the bench harness.
        self.eval_hits = 0
        self.eval_misses = 0
        self.validation_hits = 0
        self.validation_misses = 0
        sweep_tmp(self.path.parent, glob.escape(self.path.name) + ".*.tmp")
        self._load(telemetry)

    # -- persistence --------------------------------------------------------

    def _load(self, telemetry) -> None:
        """Ingest the file if -- and only if -- it is a well-formed cache
        under this scoring digest; any defect loads as empty."""
        record, reason = load_record(self.path, PLAN_CACHE_SCHEMA,
                                     self.scoring)
        if record is not None and not (
                isinstance(record.get("evaluations"), dict)
                and isinstance(record.get("validations"), dict)):
            record, reason = None, "schema"
        if record is None:
            if telemetry is not None:
                telemetry.record(STORE_MISS, "plan_cache", str(self.path),
                                 detail=reason)
            return
        for key, value in record["evaluations"].items():
            if isinstance(key, str) and _is_evaluation(value):
                self._evaluations[key] = value
        for key, value in record["validations"].items():
            if isinstance(key, str) and isinstance(value, dict) \
                    and isinstance(value.get("ok"), bool):
                self._validations[key] = value

    def save(self) -> None:
        """Publish atomically; a no-op while nothing changed."""
        if not self.dirty:
            return
        write_record(self.path, PLAN_CACHE_SCHEMA, self.scoring, {
            "evaluations": self._evaluations,
            "validations": self._validations,
        })
        self.dirty = False

    # -- evaluations --------------------------------------------------------

    def get_evaluation(self, key: str) -> Optional[dict]:
        value = self._evaluations.get(key)
        if value is None:
            self.eval_misses += 1
        else:
            self.eval_hits += 1
        return value

    def put_evaluation(self, key: str, value: dict) -> None:
        if self._evaluations.get(key) != value:
            self._evaluations[key] = value
            self.dirty = True

    # -- validation verdicts ------------------------------------------------

    @staticmethod
    def validation_key(parent_fp: str, child_fp: str, token: str,
                       check: str, trials: int, seed: int,
                       observables) -> str:
        return make_key("plan_validate", parent_fp, child_fp, token,
                        check, str(trials), str(seed),
                        repr(list(observables)))

    def get_validation(self, key: str) -> Optional[dict]:
        value = self._validations.get(key)
        if value is None:
            self.validation_misses += 1
        else:
            self.validation_hits += 1
        return value

    def put_validation(self, key: str, ok: bool, reason: str = "") -> None:
        value = {"ok": ok, "reason": reason}
        if self._validations.get(key) != value:
            self._validations[key] = value
            self.dirty = True

    def __len__(self) -> int:
        return len(self._evaluations) + len(self._validations)


def _is_evaluation(value) -> bool:
    """Whether the planner can rebuild a :class:`StateEvaluation` from
    ``value`` (a malformed entry would abort the plan instead)."""
    try:
        StateEvaluation.from_json(value)
    except TypeError:
        return False
    return True
