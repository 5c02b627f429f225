"""Tests for the automated verification-refactoring planner (repro.plan)
and the PR's timing/cleanup bugfix batch."""

import os
import time

import pytest

from repro.exec import ExecConfig, ResultCache, package_fingerprint
from repro.exec.durable import sweep_tmp
from repro.lang import analyze, parse_package
from repro.extract.skeleton import extract_skeleton
from repro.plan import (
    AlignWithSpecification, Catalog, CatalogEntry, Planner, ScoreWeights,
    StateEvaluation, aes_catalog, candidate_token, enumerate_candidates,
    evaluate_candidate,
)

# A deliberately messy package: an unrolled loop and a working-suffix
# function name, with a clean target the reference skeleton comes from.
MESSY = """
package P is
   type Byte is mod 256;
   type Arr is array (0 .. 7) of Byte;
   function Add_B (X : in Byte; Y : in Byte) return Byte is
   begin
      return X xor Y;
   end Add_B;
   procedure Q (A : in Arr; B : out Arr) is
   begin
      B (0) := Add_B (A (0), 255);
      B (1) := Add_B (A (1), 255);
      B (2) := Add_B (A (2), 255);
      B (3) := Add_B (A (3), 255);
      B (4) := Add_B (A (4), 255);
      B (5) := Add_B (A (5), 255);
      B (6) := Add_B (A (6), 255);
      B (7) := Add_B (A (7), 255);
   end Q;
end P;
"""

TARGET = MESSY.replace("Add_B", "Add")


def reference_for(source):
    return extract_skeleton(analyze(parse_package(source)))


def make_planner(source=MESSY, reference_source=TARGET, **kwargs):
    kwargs.setdefault("goal_match", 0.999)
    kwargs.setdefault("check", "full")
    return Planner(parse_package(source), observables=["Q"],
                   reference=reference_for(reference_source), **kwargs)


class TestPlannerSearch:
    def test_discovers_rename_chain(self):
        result = make_planner().plan()
        assert result.found
        assert [s.description for s in result.steps] == \
            ["rename subprogram Add_B -> Add"]
        assert result.steps[-1].match_percent == pytest.approx(100.0)
        assert "Add_B" not in result.final_source

    def test_every_step_theorem_validated(self):
        result = make_planner().plan()
        # validate-on-pop: each chain step was replayed through an engine
        # with the semantics-preservation theorem checked.
        assert result.found
        assert result.validations >= len(result.steps)

    def test_deterministic_across_runs(self):
        first = make_planner().plan()
        second = make_planner().plan()
        assert first.found and second.found
        assert first.chain_digest == second.chain_digest
        assert [s.token for s in first.steps] == \
            [s.token for s in second.steps]

    @pytest.mark.parametrize("backend,jobs", [
        ("serial", 1), ("process", 2)])
    def test_deterministic_across_backends(self, backend, jobs):
        baseline = make_planner().plan()
        config = ExecConfig(backend=backend, jobs=jobs, cache=False)
        result = make_planner(exec=config).plan()
        assert result.found
        assert result.chain_digest == baseline.chain_digest
        assert result.final_source == baseline.final_source

    def test_rollback_on_failed_theorem(self):
        # The reference architecture has an extra Scale function only the
        # catalog moves can provide.  The "shortcut" move jumps straight
        # to a package matching 100% of the architecture -- but with a
        # corrupted Add body.  It scores strictly above every honest
        # candidate, so the search pops it first; the preservation
        # theorem must reject it, roll back, and reach the goal through
        # the rename + the honest align instead.
        scale = ("   function Scale (X : in Byte) return Byte is\n"
                 "   begin\n"
                 "      return X xor 170;\n"
                 "   end Scale;\n")
        target_plus = TARGET.replace("   procedure Q",
                                     scale + "   procedure Q")
        broken_plus = target_plus.replace("return X xor Y;",
                                          "return X xor Y xor 1;")
        shortcut = AlignWithSpecification(target_source=broken_plus)
        catalog = Catalog(entries=(
            CatalogEntry("shortcut", shortcut),
            CatalogEntry("align", AlignWithSpecification(target_plus),
                         min_match=0.75, goal=True),
        ))
        result = make_planner(reference_source=target_plus,
                              catalog=catalog, goal_match=None,
                              check="differential", trials=2).plan()
        assert result.found
        rejected_tokens = {token for token, _, _ in result.rejected}
        assert candidate_token(shortcut) in rejected_tokens
        assert all(s.token != candidate_token(shortcut)
                   for s in result.steps)
        assert "xor Y xor 1" not in result.final_source
        assert any("Add_B -> Add" in s.description for s in result.steps)
        assert result.steps[-1].entry == "align"

    def test_goal_catalog_entry_gated_and_terminal(self):
        # The align goal only fires once the match gate is passed; the
        # chain it completes still needed the rename discovered first.
        catalog = Catalog(entries=(
            CatalogEntry("align", AlignWithSpecification(TARGET),
                         min_match=0.999, goal=True),))
        result = make_planner(catalog=catalog, goal_match=None).plan()
        assert result.found
        assert result.steps[-1].origin == "catalog"
        assert result.steps[-1].entry == "align"
        assert any("Add_B -> Add" in s.description for s in result.steps)

    def test_enumeration_is_deterministic(self):
        typed = analyze(parse_package(MESSY))
        reference = reference_for(TARGET)
        first = enumerate_candidates(typed, 0.5, Catalog(), frozenset(),
                                     reference)
        second = enumerate_candidates(typed, 0.5, Catalog(), frozenset(),
                                      reference)
        assert [candidate_token(c.transformation) for c in first] == \
            [candidate_token(c.transformation) for c in second]
        assert first   # the reroll and suffix-rename sites exist


class TestScoring:
    def evaluate(self, source, probe=False):
        typed = analyze(parse_package(source))
        return StateEvaluation.from_json(evaluate_candidate(
            typed.package, package_fingerprint(typed), None,
            reference_for(TARGET), probe=probe))

    def test_score_increases_toward_the_specification(self):
        # The gradient the search climbs is the one the paper's human
        # followed: the architecture-aligned state outscores the messy
        # one, with the match ratio dominating.
        weights = ScoreWeights()
        assert self.evaluate(MESSY).score(weights) < \
            self.evaluate(TARGET).score(weights)

    def test_seeded_defect_limits_the_reachable_score(self):
        # A defect breaking the repetition pattern shrinks the best
        # reroll (only part of the run anti-unifies), so the best
        # reroll-child score from the defective program is strictly
        # below the clean one's.
        defective = MESSY.replace("B (3) := Add_B (A (3), 255);",
                                  "B (3) := Add_B (A (3), 254);")
        weights = ScoreWeights()
        reference = reference_for(TARGET)

        def best_reroll_score(source):
            typed = analyze(parse_package(source))
            fp = package_fingerprint(typed)
            best = None
            for cand in enumerate_candidates(typed, 0.0, Catalog(),
                                             frozenset(), reference):
                if type(cand.transformation).__name__ != "RerollLoop":
                    continue
                ev = StateEvaluation.from_json(evaluate_candidate(
                    typed.package, fp, cand.transformation, reference))
                if ev.applicable:
                    score = ev.static_score(weights)
                    best = score if best is None else max(best, score)
            return best

        clean = best_reroll_score(MESSY)
        broken = best_reroll_score(defective)
        assert clean is not None and broken is not None
        assert broken < clean

    def test_probe_reports_discharge_fraction(self):
        evaluation = self.evaluate(TARGET, probe=True)
        assert evaluation.probed
        assert evaluation.feasible
        assert 0.0 <= evaluation.probe_fraction <= 1.0

    def test_inapplicable_is_a_result_not_an_exception(self):
        from repro.refactor import RerollLoop
        typed = analyze(parse_package(TARGET))
        evaluation = StateEvaluation.from_json(evaluate_candidate(
            typed.package, package_fingerprint(typed),
            RerollLoop(subprogram="Q", start=0, group_size=1, count=99),
            reference_for(TARGET)))
        assert not evaluation.applicable
        assert evaluation.reason


class TestAESCatalog:
    def test_catalog_covers_the_manual_chain_moves(self):
        catalog = aes_catalog()
        names = {entry.name for entry in catalog.entries}
        assert "gf-arithmetic" in names
        assert "extract-Sub_Bytes" in names
        assert "extract-Round" in names
        goal = [e for e in catalog.entries if e.goal]
        assert [e.name for e in goal] == ["align-architecture"]
        # The terminal tidy is gated: it must be unreachable from the
        # unrolled original, where it would short-circuit the search.
        assert goal[0].min_match >= 0.9
        assert goal[0] not in catalog.proposals(0.5, frozenset())

    def test_entries_propose_at_most_once(self):
        catalog = aes_catalog()
        for entry in catalog.entries:
            proposed = {e.name for e in
                        catalog.proposals(1.0, frozenset({entry.name}))}
            assert entry.name not in proposed


# ---------------------------------------------------------------------------
# Bugfix regressions riding along with this PR
# ---------------------------------------------------------------------------

class TestHarnessMonotonicTiming:
    def test_report_timer_is_wall_clock_step_immune(self):
        # Regression: run_all timed the harness with time.time(); an NTP
        # step mid-run distorted the reported total (the same defect
        # class as serve's queue_seconds, fixed in PR 7).
        import inspect
        from repro.harness import runner
        source = inspect.getsource(runner.run_all)
        assert "time.monotonic()" in source
        assert "time.time()" not in source


class TestSweepTmpClockRobustness:
    """The shared sweep rule (:func:`repro.exec.durable.sweep_tmp`) on
    the result cache's disk tier; ``tests/test_durable.py`` runs the same
    ages against every store."""

    def _tmp_file(self, cache, name, age):
        bucket = cache.disk_dir / "ab"
        bucket.mkdir(exist_ok=True)
        path = bucket / name
        path.write_text("{}")
        stamp = time.time() - age
        os.utime(path, (stamp, stamp))
        return path

    def test_ancient_orphans_are_swept(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path / "c")
        old = self._tmp_file(cache, "dead.tmp", age=7200)
        assert sweep_tmp(cache.disk_dir, "*/*.tmp", older_than=600) == 1
        assert not old.exists()

    def test_future_dated_tmp_survives(self, tmp_path):
        # Regression: a backwards wall-clock step made fresh .tmp files
        # look ancient relative to a pre-computed cutoff; deleting them
        # races a live writer's os.replace.  Future-dated files are
        # never deleted.
        cache = ResultCache(disk_dir=tmp_path / "c")
        future = self._tmp_file(cache, "fresh.tmp", age=-3600)
        assert sweep_tmp(cache.disk_dir, "*/*.tmp", older_than=600) == 0
        assert future.exists()

    def test_clock_step_doubles_the_grace_period(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path / "c")
        mid = self._tmp_file(cache, "mid.tmp", age=900)       # 1-2x grace
        self._tmp_file(cache, "fresh.tmp", age=-3600)         # step evidence
        # With a detected step, every age is suspect: the mid-aged file
        # survives the doubled grace period.
        assert sweep_tmp(cache.disk_dir, "*/*.tmp", older_than=600) == 0
        assert mid.exists()
        # Without step evidence the same file is an orphan and goes.
        (cache.disk_dir / "ab" / "fresh.tmp").unlink()
        assert sweep_tmp(cache.disk_dir, "*/*.tmp", older_than=600) == 1
        assert not mid.exists()

    def test_clear_sweeps_unconditionally(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path / "c")
        fresh = self._tmp_file(cache, "fresh.tmp", age=0)
        cache.clear()
        assert not fresh.exists()


class TestTrampolineCleanup:
    def test_close_failure_is_counted_not_hidden(self):
        # Regression: a frame whose close() raised during exception
        # unwinding was silently swallowed (bare `except: pass`); the
        # primary exception must still win, but the failure is recorded.
        from repro.logic import traversal

        def stubborn():
            try:
                yield inner()
            finally:
                raise RuntimeError("close failure")

        def inner():
            raise ValueError("primary")
            yield   # pragma: no cover

        before = traversal.close_failure_count()
        with pytest.raises(ValueError, match="primary"):
            traversal.run_trampoline(stubborn())
        assert traversal.close_failure_count() == before + 1

    def test_clean_runs_do_not_count(self):
        from repro.logic import traversal

        def doubler(n):
            if n == 0:
                return 1
            result = yield doubler(n - 1)
            return result * 2

        before = traversal.close_failure_count()
        assert traversal.run_trampoline(doubler(10)) == 1024
        assert traversal.close_failure_count() == before
