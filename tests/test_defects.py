"""Seeded-defect experiment tests (a representative sample; the full
tables 2/3 run lives in the benchmark harness)."""

import random

import pytest

from repro.defects import curated_defects, run_defect, stage_table
from repro.defects.seeder import random_mutation
from repro.defects.types import DEFECT_KINDS


@pytest.fixture(scope="module")
def defects():
    return {d.name: d for d in curated_defects()}


class TestCuratedSet:
    def test_fifteen_defects_three_per_kind(self, defects):
        assert len(defects) == 15
        by_kind = {}
        for d in defects.values():
            by_kind[d.kind] = by_kind.get(d.kind, 0) + 1
        assert by_kind == {kind: 3 for kind in DEFECT_KINDS}

    def test_exactly_one_benign(self, defects):
        assert sum(1 for d in defects.values() if d.benign) == 1

    def test_patch_sites_exist(self, defects):
        from repro.aes.optimized import optimized_source
        from repro.aes.refactored import refactored_source
        for d in defects.values():
            for old, _ in d.optimized_patch:
                assert old in optimized_source(), (d.name, old[:50])
            for old, _ in d.refactored_patch:
                assert old in refactored_source(), (d.name, old[:50])


class TestDetectionStages:
    def test_refactoring_catches_broken_round(self, defects):
        outcome = run_defect(defects["D02-index-round-key"], setup=1)
        assert outcome.stage == "refactoring"

    def test_refactoring_catches_corrupt_table(self, defects):
        outcome = run_defect(defects["D01-numeric-table-entry"], setup=2)
        assert outcome.stage == "refactoring"
        assert "does not compute" in outcome.detail

    def test_exception_freedom_catches_oob_in_both_setups(self, defects):
        for setup in (1, 2):
            outcome = run_defect(defects["D06-index-shift-rows"], setup)
            assert outcome.stage == "implementation", outcome.detail

    def test_functional_defect_setup1_implication(self, defects):
        outcome = run_defect(defects["D11-reference-sbox"], setup=1)
        assert outcome.stage == "implication", outcome.detail

    def test_functional_defect_setup2_implementation(self, defects):
        outcome = run_defect(defects["D11-reference-sbox"], setup=2)
        assert outcome.stage == "implementation", outcome.detail

    def test_benign_defect_never_caught(self, defects):
        for setup in (1, 2):
            outcome = run_defect(
                defects["D15-statement-key-array-length"], setup)
            assert outcome.stage == "not caught"
            assert outcome.defect.benign


class TestStageTable:
    def test_rows_shape(self, defects):
        from repro.defects import DefectOutcome
        sample = [
            DefectOutcome(defects["D01-numeric-table-entry"], 1,
                          "refactoring"),
            DefectOutcome(defects["D06-index-shift-rows"], 1,
                          "implementation"),
            DefectOutcome(defects["D11-reference-sbox"], 1, "implication"),
            DefectOutcome(defects["D15-statement-key-array-length"], 1,
                          "not caught"),
        ]
        rows = stage_table(sample)
        assert rows == {"refactoring": 1, "implementation": 1,
                        "implication": 1, "left": 1}


class TestRandomSeeder:
    def test_random_mutations_detected_or_benign(self):
        from repro.aes.refactored import refactored_package
        from repro.aes.fips197 import fips197_theory
        from repro.extract import extract_specification
        from repro.implication import prove_implication
        from repro.equiv import differential_check
        from repro.lang import analyze

        typed = refactored_package()
        rng = random.Random(20090701)
        detected = 0
        total = 3  # implication runs are the slow part; keep the sample small
        for _ in range(total):
            mutation = random_mutation(typed, rng)
            assert mutation is not None
            mutated = analyze(mutation.package)
            extraction = extract_specification(mutated)
            if mutation.subprogram in extraction.skipped:
                detected += 1  # extraction itself failed: visibly defective
                continue
            result = prove_implication(fips197_theory(), extraction.theory)
            if not result.holds:
                detected += 1
            else:
                # The implication proof accepted the mutant: it must be
                # behaviourally equivalent (otherwise the proof is unsound).
                check = differential_check(
                    typed, mutation.subprogram, mutated, mutation.subprogram,
                    trials=16)
                assert check.holds, mutation.description
        assert detected >= 1
