"""Warm replanning from the result cache (DESIGN.md §18): the planner's
candidate evaluations and theorem verdicts are records in the
content-addressed result cache, so a replan over the same disk tier
reproduces the cold plan bit-identically while computing zero
obligations.  Verdict keys name the validation engine's samplers."""

import json
import shutil

import pytest

from repro.exec import ExecConfig, ResultCache, Telemetry
from repro.plan import StateEvaluation, plan_aes
from repro.plan.search import validation_key
from tests.test_plan import make_planner


#: One capped planner invocation is ~20 s on this box; the replay pair
#: below shares a single cold run via a module-scoped fixture.
_PLAN_KW = dict(trials=1, beam_width=4, top_k=3, max_expansions=2)


def _plan(disk, telemetry=None):
    """A capped AES plan over a fresh result cache on ``disk``: nothing
    is answered from memory, only from the disk tier."""
    return plan_aes(exec=ExecConfig(jobs=1, telemetry=telemetry,
                                    cache=ResultCache(disk_dir=disk)),
                    **_PLAN_KW)


def _records(disk):
    """``(path, record)`` for every record of the disk tier."""
    for path in sorted(disk.glob("*/*.json")):
        yield path, json.loads(path.read_text())


def _is_verdict(value):
    return isinstance(value, dict) and set(value) == {"level", "holds",
                                                      "detail"}


def _is_evaluation(value):
    try:
        StateEvaluation.from_json(value)
    except TypeError:
        return False
    return True


@pytest.fixture(scope="module")
def cold_and_warm(tmp_path_factory):
    disk = tmp_path_factory.mktemp("plan") / "cache"
    cold_tel, warm_tel = Telemetry(), Telemetry()
    cold = _plan(disk, cold_tel)
    warm = _plan(disk, warm_tel)
    return disk, cold, warm, cold_tel, warm_tel


class TestWarmReplay:
    def test_cache_file_written(self, cold_and_warm):
        """Evaluations and verdicts both land in the disk tier."""
        disk, _, _, _, _ = cold_and_warm
        values = [record["value"] for _, record in _records(disk)]
        assert any(_is_evaluation(value) for value in values)
        assert any(_is_verdict(value) for value in values)

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
        """Every obligation of the warm replan -- evaluations, the root
        included, and any differential trial -- is a cache hit."""
        _, _, _, cold_tel, warm_tel = cold_and_warm
        assert cold_tel.stats().computed.get("plan_eval", 0) > 0
        assert sum(warm_tel.stats().computed.values()) == 0
        assert warm_tel.stats().cached.get("plan_eval", 0) > 0

    def test_cached_rejections_replayed_without_trials(self, cold_and_warm,
                                                       tmp_path):
        """The cached-verdict rejection branch: flip every accepted
        verdict record in a copy of the disk tier to ``ok=False`` and
        replan -- the planner must reject those edges *from the cache*
        (the injected reason surfaces in ``result.rejected``) instead of
        re-running differential trials and re-accepting them."""
        disk, cold, _, _, _ = cold_and_warm
        assert cold.steps        # the capped search accepts something
        poisoned = tmp_path / "poisoned"
        shutil.copytree(disk, poisoned)
        flipped = 0
        for path, record in _records(poisoned):
            if _is_verdict(record["value"]) and record["value"]["holds"]:
                record["value"] = {"level": "sampled", "holds": False,
                                   "detail": "injected rejection"}
                path.write_text(json.dumps(record))
                flipped += 1
        assert flipped > 0
        result = _plan(poisoned)
        reasons = {r[2] for r in result.rejected}
        assert "injected rejection" in reasons
        # (the same *description* may still be accepted via a different
        # parent edge -- validation verdicts key the edge, not the move)

    def test_malformed_entry_is_re_evaluated(self, cold_and_warm, tmp_path):
        """A malformed evaluation record under a real key is a miss and
        is re-evaluated: the plan is unchanged instead of aborting."""
        disk, cold, _, _, _ = cold_and_warm
        damaged = tmp_path / "damaged"
        shutil.copytree(disk, damaged)
        path, record = next((path, record)
                            for path, record in _records(damaged)
                            if _is_evaluation(record["value"]))
        record["value"] = {"bogus": 1}
        path.write_text(json.dumps(record))
        telemetry = Telemetry()
        result = _plan(damaged, telemetry)
        assert result.chain_digest == cold.chain_digest
        assert telemetry.stats().computed == {"plan_eval": 1}


def _sampler_a(rng):
    return {"A": [rng.randrange(256) for _ in range(8)], "B": [0] * 8}


def _sampler_b(rng):
    return {"A": [rng.randrange(128) for _ in range(8)], "B": [0] * 8}


class TestVerdictKeys:
    def _key(self, samplers):
        return validation_key("parent", "child", "token", "differential",
                              1, 7, ["Q"], samplers)

    def test_samplers_are_part_of_the_key(self):
        assert self._key({"Q": _sampler_a}) == self._key({"Q": _sampler_a})
        assert len({self._key(None), self._key({"Q": _sampler_a}),
                    self._key({"Q": _sampler_b}),
                    self._key({"Cipher": _sampler_a})}) == 4

    def test_unnamed_samplers_are_keyed_by_identity(self):
        """A lambda or nested function has no importable name; it is
        keyed by its ``repr`` (its address), so two equal-looking ones
        never share verdicts."""
        def nested(rng):
            return _sampler_a(rng)

        first, second = (lambda rng: _sampler_a(rng) for _ in range(2))
        assert len({self._key({"Q": first}), self._key({"Q": second}),
                    self._key({"Q": nested})}) == 3

    def test_each_sampler_set_validates_its_own_edges(self):
        """The same edge under two sampler sets sharing one result cache
        is validated twice; a third search under the first set replays
        the first set's verdict."""
        cache = ResultCache()

        def steps(sampler):
            log = []
            result = make_planner(
                check="differential", trials=1, samplers={"Q": sampler},
                exec=ExecConfig(jobs=1, cache=cache),
                log=log.append).plan()
            assert result.found
            return [line for line in log if line.startswith("step ")]

        first, second, third = (steps(_sampler_a), steps(_sampler_b),
                                steps(_sampler_a))
        assert first and len(first) == len(second) == len(third)
        assert not any("cached theorem" in line for line in first + second)
        assert all("cached theorem" in line for line in third)
