"""Sibling-state reuse in the planner (DESIGN.md §22).

Every reuse must be the same deterministic computation on the same
content: a memoized evaluation equals a cold one on a re-parsed copy,
a reused resolution equals a cold resolution, a changed environment
re-checks, the per-object memos never reach a pickle, and nothing a
search memoizes survives into the next search.
"""

import pickle

import pytest

from repro.aes.fips197 import fips197_theory
from repro.aes.optimized import optimized_source
from repro.exec import ExecConfig, package_fingerprint
from repro.incr.fingerprint import cone_fingerprints
from repro.lang import (
    TypeError_, analyze, parse_package, print_package,
    with_true_postconditions,
)
from repro.lang.errors import MiniAdaError
from repro.metrics import complexity_metrics, element_metrics
from repro.plan import aes_catalog, enumerate_candidates, evaluate_candidate
from repro.plan.reuse import REUSE_KINDS, SearchMemo
from repro.refactor import TransformationError

#: The one-expansion AES search's chain (as the ledger records it).
ONE_EXPANSION_DIGEST = ("b8e91c59873cba95c968cfca86f51d63"
                        "d5e2c0e373fba958fb3114c4cbb9ee52")


def _library_sites(typed):
    """Every library site enumerated on ``typed``, as candidate tokens
    (site enumeration memoizes per subprogram object, too)."""
    from repro.plan import candidate_token
    from repro.refactor.library import TRANSFORMATION_LIBRARY
    return [candidate_token(t) for classes in TRANSFORMATION_LIBRARY.values()
            for cls in classes for t in cls.enumerate_sites(typed)]


def _cold(package):
    """A re-parsed copy: fresh objects that no memo has seen."""
    return parse_package(print_package(package))


@pytest.fixture(scope="module")
def root_expansion():
    """The optimized AES, its fingerprint, and the candidates of its
    first expansion (with the root's match components)."""
    typed = analyze(parse_package(optimized_source()))
    fp = package_fingerprint(typed)
    reference = fips197_theory()
    root = evaluate_candidate(typed.package, fp, None, reference,
                              memo=SearchMemo())
    candidates = enumerate_candidates(
        typed, root["match_fraction"], aes_catalog(), frozenset(),
        reference, observables=["Cipher", "Inv_Cipher"])
    parent_match = (root["match_fraction"], root["match_total"])
    return typed, fp, reference, candidates, parent_match


class TestCandidateDifferential:
    def test_memoized_evaluations_equal_cold_ones(self, root_expansion):
        typed, fp, reference, candidates, parent_match = root_expansion
        assert len(candidates) > 10
        memo = SearchMemo()
        for candidate in candidates:
            t = candidate.transformation
            for probe in (False, True):
                warm = evaluate_candidate(
                    typed.package, fp, t, reference,
                    parent_match=parent_match, probe=probe, memo=memo)
                # A fresh memo per cold call: nothing is reused.
                cold = evaluate_candidate(
                    _cold(typed.package), fp, t, reference,
                    parent_match=parent_match, probe=probe,
                    memo=SearchMemo())
                assert warm == cold, t.describe()
        assert memo.reused["probe_subprograms"] > 0


class TestAnalyzeReuse:
    def test_children_resolve_as_cold_copies_do(self, root_expansion):
        typed, _fp, _reference, candidates, _match = root_expansion
        root_objects = {id(sp) for sp in typed.package.subprograms}
        reused = 0
        for candidate in candidates:
            try:
                child_package = candidate.transformation.apply(typed)
                warm = analyze(child_package)
            except (TransformationError, MiniAdaError):
                continue        # inapplicable candidate
            cold = analyze(_cold(child_package))
            assert warm.package == cold.package
            assert warm.signatures == cold.signatures
            for sp in warm.package.subprograms:
                w, c = warm.context(sp.name), cold.context(sp.name)
                assert (w.vars, w.modes) == (c.vars, c.modes)
                assert w.subprogram is sp
            assert _library_sites(warm) == _library_sites(cold)
            reused += sum(1 for sp in warm.package.subprograms
                          if id(sp) in root_objects)
        assert reused > 0

    def test_reanalysis_returns_the_same_subprograms(self):
        typed = analyze(parse_package(optimized_source()))
        again = analyze(typed.package)
        assert all(a is b for a, b in zip(again.package.subprograms,
                                          typed.package.subprograms))


CONSTANT_PKG = """
package P is
   type Byte is mod 256;
   type Word is mod 65536;
   K : constant Byte := 3;
   procedure Q (X : in Byte; Y : out Byte) is
   begin
      Y := X xor K;
   end Q;
end P;
"""

CALLEE_PKG = """
package P is
   type Byte is mod 256;
   procedure Inc (X : in Byte; Y : out Byte) is
   begin
      Y := X + 1;
   end Inc;
   procedure Q (A : in Byte; B : out Byte) is
   begin
      Inc (A + 1, B);
   end Q;
end P;
"""


def _cold_error(package):
    with pytest.raises(TypeError_) as cold:
        analyze(_cold(package))
    return str(cold.value)


class TestInvalidation:
    def test_constant_type_change_rechecks_its_readers(self):
        import dataclasses
        typed = analyze(parse_package(CONSTANT_PKG))
        decls = tuple(
            dataclasses.replace(d, type_name="Word")
            if getattr(d, "name", None) == "K" else d
            for d in typed.package.decls)
        changed = dataclasses.replace(typed.package, decls=decls)
        # Q is the very object the first analysis produced.
        assert changed.subprograms[0] is typed.package.subprograms[0]
        expected = _cold_error(changed)
        with pytest.raises(TypeError_) as warm:
            analyze(changed)
        assert str(warm.value) == expected
        assert "xor" in expected

    def test_callee_mode_change_rechecks_its_callers(self):
        import dataclasses
        typed = analyze(parse_package(CALLEE_PKG))
        inc, q = typed.package.subprograms
        params = (dataclasses.replace(inc.params[0], mode="in out"),
                  inc.params[1])
        changed = dataclasses.replace(
            typed.package,
            subprograms=(dataclasses.replace(inc, params=params), q))
        expected = _cold_error(changed)
        with pytest.raises(TypeError_) as warm:
            analyze(changed)
        assert str(warm.value) == expected
        assert "needs a variable argument" in expected


class TestPickleInvariance:
    def test_measuring_a_package_leaves_its_pickle_unchanged(self):
        package = parse_package(optimized_source())
        before = pickle.dumps(package)
        typed = analyze(package)
        resolved_before = pickle.dumps(typed.package)
        for pkg in (package, typed.package):
            print_package(pkg)
            complexity_metrics(pkg)
            element_metrics(pkg)
        package_fingerprint(typed)
        cone_fingerprints(typed)
        cone_fingerprints(analyze(with_true_postconditions(typed.package)))
        analyze(typed.package)
        assert pickle.dumps(package) == before
        assert pickle.dumps(typed.package) == resolved_before


class TestSearchScope:
    def test_no_memo_outlives_a_search(self, monkeypatch):
        import repro.equiv.differential as differential
        from repro.plan import plan_aes
        from repro.vcgen.examiner import Examiner

        calls = {"final_state": 0, "examine": 0}
        final_state = differential.final_state
        examine_one = Examiner._examine_one

        def counted_final_state(*args, **kwargs):
            calls["final_state"] += 1
            return final_state(*args, **kwargs)

        def counted_examine_one(self, name):
            calls["examine"] += 1
            return examine_one(self, name)

        monkeypatch.setattr(differential, "final_state",
                            counted_final_state)
        monkeypatch.setattr(Examiner, "_examine_one", counted_examine_one)
        runs = []
        for _ in range(2):
            calls.update(final_state=0, examine=0)
            result = plan_aes(trials=2, max_expansions=1,
                              exec=ExecConfig(cache=False))
            runs.append((result.chain_digest, dict(calls),
                         dict(result.reused)))
        assert runs[0] == runs[1]
        digest, counted, reused = runs[0]
        assert digest == ONE_EXPANSION_DIGEST
        assert counted["final_state"] > 0 and counted["examine"] > 0
        assert set(reused) == set(REUSE_KINDS)
        assert all(count > 0 for count in reused.values())
        assert result.to_json()["reused"] == reused


class TestObjectMemoThreads:
    def test_concurrent_puts_gets_and_drops(self):
        # More threads than cores and a short switch interval: every
        # live object must read back its own value, and every entry
        # must be gone once its object is.
        import gc
        import sys
        import threading
        from repro.lang import ast
        from repro.lang.memo import ObjectMemo

        memo = ObjectMemo()
        failures = []

        def worker(seed):
            for round_ in range(200):
                nodes = [ast.Name(f"v{seed}_{round_}_{i}") for i in range(20)]
                for node in nodes:
                    memo.put(node, node.id)
                for node in nodes:
                    if memo.get(node) != node.id:
                        failures.append(node.id)
                del nodes

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        gc.collect()
        assert failures == []
        assert len(memo) == 0
