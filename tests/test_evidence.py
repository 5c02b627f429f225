"""One evidence ladder for every proof step (DESIGN.md §23): the record,
the rung walk, the preservation theorem's rungs, the engine's check
modes, and the cache records that carry evidence."""

import json

import pytest

from repro.equiv import prove_equivalence
from repro.evidence import Evidence, ladder, weakest
from repro.exec import ExecConfig, ResultCache, Telemetry
from repro.extract import extract_specification
from repro.implication import prove_implication
from repro.lang import analyze, parse_package
from repro.refactor import (
    RefactoringEngine, Transformation, TransformationError,
)
from repro.spec import parse_theory
from tests.test_extract_implication import CODE, SPEC
from tests.test_plan import make_planner


def _source(body, params="X : in Byte", ret=" return Byte",
            kind="function"):
    return f"""
package P is
   type Byte is mod 256;
   type Quad is array (0 .. 3) of Byte;
   {kind} F ({params}){ret} is
   begin
{body}
   end F;
end P;
"""


def _typed(*args, **kwargs):
    return analyze(parse_package(_source(*args, **kwargs)))


BYTE_XOR = "      return X xor 90;"
#: Equal to BYTE_XOR on every input, but its symbolic summary is an
#: ``ite`` whose normal form differs: the symbolic rung gives up.
BYTE_XOR_SPLIT = """      if X = 200 then
         return 146;
      end if;
      return X xor 90;"""
BYTE_XOR_DEFECT = BYTE_XOR_SPLIT.replace("146", "0")
QUAD = dict(params="A : in Quad")
QUAD_XOR = "      return A (0) xor A (1);"
#: Equal to QUAD_XOR everywhere (x xor x = 0); the domain is 2^32.
QUAD_XOR_SPLIT = """      if A (0) = A (1) then
         return 0;
      end if;
      return A (0) xor A (1);"""
#: Differs from QUAD_XOR on most inputs.
QUAD_XOR_DEFECT = QUAD_XOR_SPLIT.replace("A (0) = A (1)", "A (0) > 10") \
    .replace("return 0", "return 1")


class TestLadder:
    def test_first_decision_wins_and_later_rungs_do_not_run(self):
        ran = []

        def rung(name, evidence):
            def run():
                ran.append(name)
                return evidence
            return run

        decided = Evidence("exhaustive", True, "all agree")
        assert ladder([rung("symbolic", None), rung("exhaustive", decided),
                       rung("sampled", Evidence("sampled", True))]) \
            is decided
        assert ran == ["symbolic", "exhaustive"]

    def test_every_rung_giving_up_is_none(self):
        assert ladder([lambda: None, lambda: None]) is None
        assert ladder(()) is None

    def test_proof_is_derived_from_the_level(self):
        assert [Evidence(level, False).is_proof
                for level in ("table", "symbolic", "exhaustive", "sampled")
                ] == [True, True, True, False]
        with pytest.raises(ValueError, match="differential"):
            Evidence("differential", True)

    def test_weakest_is_the_first_at_the_weakest_level(self):
        a, b, c = (Evidence("symbolic", True, "a"),
                   Evidence("sampled", True, "b"),
                   Evidence("sampled", True, "c"))
        assert weakest([a, b, c]) is b
        assert weakest([a]) is a
        assert weakest([]) is None

    def test_json_round_trip_drops_the_counterexample(self):
        evidence = Evidence("sampled", False, "trial 3", {"X": 1})
        assert Evidence.from_json(evidence.to_json()) == \
            Evidence("sampled", False, "trial 3")

    @pytest.mark.parametrize("record", [
        {"ok": True, "reason": ""},
        {"proved": True, "evidence": "symbolic", "is_proof": True,
         "detail": "", "manual_steps": 2},
        {"level": "sampled", "holds": "yes", "detail": ""},
        {"level": "differential", "holds": True, "detail": ""},
    ])
    def test_records_of_other_shapes_are_rejected(self, record):
        with pytest.raises((KeyError, TypeError, ValueError)):
            Evidence.from_json(record)


class TestPreservationRungs:
    """Each rung decides once, and each can refute."""

    def _prove(self, left, right, **kwargs):
        return prove_equivalence(_typed(left, **kwargs), "F",
                                 _typed(right, **kwargs), "F")

    def test_symbolic_proof(self):
        evidence = self._prove(BYTE_XOR, "      return 90 xor X;")
        assert (evidence.level, evidence.holds, evidence.is_proof) == \
            ("symbolic", True, True)

    def test_symbolic_gives_up_and_exhaustive_proves(self):
        evidence = self._prove(BYTE_XOR, BYTE_XOR_SPLIT)
        assert evidence == Evidence("exhaustive", True,
                                    "256 initial states agreed")

    def test_large_domain_falls_through_to_sampled(self):
        evidence = self._prove(QUAD_XOR, QUAD_XOR_SPLIT, **QUAD)
        assert evidence == Evidence("sampled", True,
                                    "64 initial states agreed")
        assert not evidence.is_proof

    def test_symbolic_refutation(self):
        evidence = prove_equivalence(
            _typed(BYTE_XOR), "F",
            _typed("      X := X xor 90;", params="X : in out Byte",
                   ret="", kind="procedure"), "F")
        assert evidence == Evidence("symbolic", False,
                                    "observable variables differ")

    def test_exhaustive_refutation(self):
        evidence = self._prove(BYTE_XOR, BYTE_XOR_DEFECT)
        assert (evidence.level, evidence.holds) == ("exhaustive", False)
        assert evidence.counterexample.initial == {"X": 200}

    def test_sampled_refutation(self):
        evidence = self._prove(QUAD_XOR, QUAD_XOR_DEFECT, **QUAD)
        assert (evidence.level, evidence.holds) == ("sampled", False)
        assert evidence.detail == "counterexample on trial 1"
        assert evidence.counterexample is not None


class _Replace(Transformation):
    """Replace the package outright (the test supplies the result)."""

    name = "replace"
    category = "test"

    def __init__(self, source):
        self.source = source

    def apply(self, typed):
        return parse_package(self.source)


class TestEngineChecks:
    def _engine(self, check, **kwargs):
        return RefactoringEngine(parse_package(_source(QUAD_XOR, **QUAD)),
                                 ["F"], check=check, trials=8, **kwargs)

    @pytest.mark.parametrize("check", ["ful", "symbolic", ""])
    def test_unknown_check_is_refused(self, check):
        with pytest.raises(ValueError,
                           match="full, differential, none.*" + repr(check)):
            self._engine(check)
        with pytest.raises(ValueError, match="full, differential, none"):
            make_planner(check=check)

    def test_full_and_differential_share_the_scheduled_sampled_rung(self):
        """Both modes run the sampled rung as scheduled trials (telemetry
        sees them) and reach the same evidence."""
        evidence = {}
        for check in ("full", "differential"):
            telemetry = Telemetry()
            engine = self._engine(check, exec=ExecConfig(
                jobs=1, cache=False, telemetry=telemetry))
            application = engine.apply(
                _Replace(_source(QUAD_XOR_SPLIT, **QUAD)))
            evidence[check] = application.theorems["F"]
            assert telemetry.stats().computed == {"equiv_trial": 8}
        assert evidence["full"] == evidence["differential"] == \
            Evidence("sampled", True, "8 initial states agreed")

    def test_refusal_carries_the_refuting_level(self):
        with pytest.raises(TransformationError, match="NOT preserved") \
                as refused:
            self._engine("full").apply(
                _Replace(_source(QUAD_XOR_DEFECT, **QUAD)))
        assert refused.value.level == "sampled"

    def test_none_checks_nothing(self):
        application = self._engine("none").apply(
            _Replace(_source(QUAD_XOR_DEFECT, **QUAD)))
        assert application.theorems == {} and application.preserved


def _disk_records(disk):
    for path in sorted(disk.glob("*/*.json")):
        yield path, json.loads(path.read_text())


def _rewrite(disk, select, old_shape):
    """Rewrite each record whose value ``select`` accepts into
    ``old_shape(value)``; returns how many were rewritten."""
    count = 0
    for path, record in _disk_records(disk):
        if select(record["value"]):
            record["value"] = old_shape(record["value"])
            path.write_text(json.dumps(record))
            count += 1
    return count


class TestOldCacheRecords:
    """Records written before the evidence ladder are misses, recomputed
    and rewritten in the new shape."""

    def test_old_lemma_records(self, tmp_path):
        original = parse_theory(SPEC)
        extracted = extract_specification(
            analyze(parse_package(CODE))).theory

        def prove(telemetry=None):
            return prove_implication(original, extracted, exec=ExecConfig(
                jobs=1, telemetry=telemetry,
                cache=ResultCache(disk_dir=tmp_path)))

        def is_lemma(value):
            return set(value) == {"level", "holds", "detail",
                                  "manual_steps"}

        cold = prove()
        rewritten = _rewrite(tmp_path, is_lemma, lambda value: {
            "proved": value["holds"], "evidence": value["level"],
            "is_proof": value["level"] != "sampled",
            "detail": value["detail"],
            "manual_steps": value["manual_steps"]})
        assert rewritten == cold.lemma_count
        telemetry = Telemetry()
        again = prove(telemetry)
        assert telemetry.stats().computed == {"lemma": cold.lemma_count}
        assert again.outcomes == cold.outcomes and again.holds
        assert sum(is_lemma(record["value"])
                   for _, record in _disk_records(tmp_path)) == \
            cold.lemma_count

    def test_old_verdict_records(self, tmp_path):
        def plan():
            """The search's report (less reuse counts, which cached
            evaluations change) and how many verdicts it read cached."""
            log = []
            result = make_planner(
                exec=ExecConfig(jobs=1, cache=ResultCache(disk_dir=tmp_path)),
                log=log.append).plan()
            report = result.to_json()
            report.pop("reused")
            return report, sum("cached theorem" in line for line in log)

        def is_verdict(value):
            return set(value) == {"level", "holds", "detail"}

        cold, cached = plan()
        assert cold["found"] and cached == 0
        assert _rewrite(tmp_path, is_verdict, lambda value: {
            "ok": value["holds"], "reason": value["detail"]}) == \
            cold["validations"]
        again, cached = plan()
        assert cached == 0 and again == cold   # every verdict recomputed
        warm, cached = plan()     # ... and rewritten in the new shape
        assert cached == len(cold["steps"]) and warm == cold
        assert cold["edge_levels"] == {"symbolic": 1}
