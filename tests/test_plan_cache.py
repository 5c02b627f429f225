"""Persistent plan-cache tests (DESIGN.md §18): defensive loading,
atomic round-trips, scoring-digest scoping, and the headline property --
a warm replan reproduces the cold plan bit-identically while scheduling
zero evaluation obligations."""

import json

import pytest

from repro.exec import ExecConfig, Telemetry
from repro.plan import PLAN_CACHE_SCHEMA, PlanCache, StateEvaluation, \
    plan_aes, scoring_digest


#: A well-formed evaluation entry, as the planner stores it.
_EVALUATION = StateEvaluation(applicable=True, fingerprint="fp",
                              match_fraction=0.5).to_json()


def _digest(tag="ref-fp"):
    return scoring_digest(tag, 4096, 24, "differential", 2, 7,
                          ["Cipher"])


class TestScoringDigest:
    def test_sensitive_to_every_scoping_input(self):
        base = _digest()
        assert base == _digest()
        variants = [
            scoring_digest("other-fp", 4096, 24, "differential", 2, 7,
                           ["Cipher"]),
            scoring_digest("ref-fp", 8192, 24, "differential", 2, 7,
                           ["Cipher"]),
            scoring_digest("ref-fp", 4096, 48, "differential", 2, 7,
                           ["Cipher"]),
            scoring_digest("ref-fp", 4096, 24, "exhaustive", 2, 7,
                           ["Cipher"]),
            scoring_digest("ref-fp", 4096, 24, "differential", 3, 7,
                           ["Cipher"]),
            scoring_digest("ref-fp", 4096, 24, "differential", 2, 8,
                           ["Cipher"]),
            scoring_digest("ref-fp", 4096, 24, "differential", 2, 7,
                           ["Cipher", "Inv_Cipher"]),
        ]
        assert len({base, *variants}) == len(variants) + 1


class TestPlanCachePersistence:
    def test_missing_file_loads_empty(self, tmp_path):
        cache = PlanCache(tmp_path / "none.json", _digest())
        assert len(cache) == 0
        assert not cache.dirty

    def test_round_trip(self, tmp_path):
        path = tmp_path / "plan.json"
        cache = PlanCache(path, _digest())
        cache.put_evaluation("k1", _EVALUATION)
        key = PlanCache.validation_key("p", "c", "tok", "differential",
                                       2, 7, ["Cipher"])
        cache.put_validation(key, True, "")
        cache.put_validation("bad-edge", False, "mismatch at trial 1")
        assert cache.dirty
        cache.save()
        assert not cache.dirty

        clone = PlanCache(path, _digest())
        assert len(clone) == 3
        assert clone.get_evaluation("k1") == _EVALUATION
        assert clone.get_validation(key) == {"ok": True, "reason": ""}
        assert clone.get_validation("bad-edge") == \
            {"ok": False, "reason": "mismatch at trial 1"}
        assert clone.eval_hits == 1 and clone.validation_hits == 2

    def test_save_without_changes_is_a_no_op(self, tmp_path):
        path = tmp_path / "plan.json"
        cache = PlanCache(path, _digest())
        cache.save()
        assert not path.exists()

    def test_torn_file_loads_empty(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text('{"schema": "repro-plan-cache/v1", "scor')
        assert len(PlanCache(path, _digest())) == 0

    def test_wrong_schema_loads_empty(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "schema": "repro-plan-cache/v0", "scoring": _digest(),
            "evaluations": {"k": {}}, "validations": {}}))
        assert len(PlanCache(path, _digest())) == 0

    def test_other_scoring_digest_loads_empty(self, tmp_path):
        """A cache written under different probe budgets / validation
        config must not leak entries into this run."""
        path = tmp_path / "plan.json"
        cache = PlanCache(path, _digest("fp-a"))
        cache.put_evaluation("k", _EVALUATION)
        cache.save()
        assert len(PlanCache(path, _digest("fp-a"))) == 1
        assert len(PlanCache(path, _digest("fp-b"))) == 0

    def test_malformed_entries_dropped_not_fatal(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "schema": PLAN_CACHE_SCHEMA, "scope": _digest(),
            "evaluations": {"good": _EVALUATION, "bad": "not-a-dict",
                            "foreign": {"x": 1}},
            "validations": {"good": {"ok": True, "reason": ""},
                            "bad": {"ok": "yes"}}}))
        cache = PlanCache(path, _digest())
        assert len(cache) == 2
        assert cache.get_evaluation("good") == _EVALUATION
        assert cache.get_evaluation("bad") is None
        assert cache.get_evaluation("foreign") is None
        assert cache.get_validation("bad") is None

    def test_non_dict_sections_load_empty(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "schema": PLAN_CACHE_SCHEMA, "scope": _digest(),
            "evaluations": [1, 2], "validations": {}}))
        assert len(PlanCache(path, _digest())) == 0


#: One capped planner invocation is ~20 s on this box; the replay pair
#: below shares a single cold run via a module-scoped fixture.
_PLAN_KW = dict(trials=1, beam_width=4, top_k=3, max_expansions=2)


@pytest.fixture(scope="module")
def cold_and_warm(tmp_path_factory):
    path = tmp_path_factory.mktemp("plan") / "plan-cache.json"
    cold_tel, warm_tel = Telemetry(), Telemetry()
    cold = plan_aes(exec=ExecConfig(jobs=1, telemetry=cold_tel),
                    plan_cache=str(path), **_PLAN_KW)
    warm = plan_aes(exec=ExecConfig(jobs=1, telemetry=warm_tel),
                    plan_cache=str(path), **_PLAN_KW)
    return path, cold, warm, cold_tel, warm_tel


class TestWarmReplay:
    def test_cache_file_written(self, cold_and_warm):
        path, _, _, _, _ = cold_and_warm
        data = json.loads(path.read_text())
        assert data["schema"] == PLAN_CACHE_SCHEMA
        assert data["evaluations"] and data["validations"]

    def test_warm_replan_is_bit_identical(self, cold_and_warm):
        _, cold, warm, _, _ = cold_and_warm
        assert warm.chain_digest == cold.chain_digest
        assert warm.found == cold.found
        assert warm.expansions == cold.expansions
        assert warm.evaluations == cold.evaluations
        assert warm.validations == cold.validations
        assert [s.description for s in warm.steps] == \
            [s.description for s in cold.steps]
        assert [r[1:] for r in warm.rejected] == \
            [r[1:] for r in cold.rejected]

    def test_warm_replan_schedules_no_evaluations(self, cold_and_warm):
        _, _, _, cold_tel, warm_tel = cold_and_warm

        def plan_evals(telemetry):
            return len({e.label for e in telemetry.events()
                        if e.kind == "plan_eval"
                        and e.event == "finished"})

        assert plan_evals(cold_tel) > 0
        assert plan_evals(warm_tel) == 0

    def test_cached_rejections_replayed_without_trials(self, cold_and_warm,
                                                       tmp_path):
        """The cached-verdict rejection branch: flip every accepted
        verdict in a copy of the cache to ``ok=False`` and replan --
        the planner must reject those edges *from the cache* (the
        injected reason surfaces in ``result.rejected``) instead of
        re-running differential trials and re-accepting them."""
        path, cold, _, _, _ = cold_and_warm
        assert cold.steps        # the capped search accepts something
        data = json.loads(path.read_text())
        flipped = 0
        for value in data["validations"].values():
            if value["ok"]:
                value.update(ok=False, reason="injected rejection")
                flipped += 1
        assert flipped > 0
        poisoned = tmp_path / "poisoned.json"
        poisoned.write_text(json.dumps(data))
        result = plan_aes(exec=ExecConfig(jobs=1),
                          plan_cache=str(poisoned), **_PLAN_KW)
        reasons = {r[2] for r in result.rejected}
        assert "injected rejection" in reasons
        # (the same *description* may still be accepted via a different
        # parent edge -- validation verdicts key the edge, not the move)

    def test_malformed_entry_is_re_evaluated(self, cold_and_warm, tmp_path):
        """A malformed evaluation under a real key is dropped at load and
        re-evaluated: the plan is unchanged instead of aborting."""
        path, cold, _, _, _ = cold_and_warm
        data = json.loads(path.read_text())
        key = sorted(data["evaluations"])[0]
        data["evaluations"][key] = {"bogus": 1}
        damaged = tmp_path / "damaged.json"
        damaged.write_text(json.dumps(data))
        telemetry = Telemetry()
        result = plan_aes(exec=ExecConfig(jobs=1, telemetry=telemetry),
                          plan_cache=str(damaged), **_PLAN_KW)
        assert result.chain_digest == cold.chain_digest
        # the dropped entry went back to the scheduler (whose process-wide
        # result cache still holds it)
        assert [e.event for e in telemetry.events()
                if e.kind == "plan_eval"] == ["submitted", "cached"]

    def test_store_misses_counted_by_reason(self, cold_and_warm):
        _, _, _, cold_tel, warm_tel = cold_and_warm
        assert cold_tel.stats().store_misses == {"absent": 1}
        assert warm_tel.stats().store_misses == {}
