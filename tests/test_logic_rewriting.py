"""Rewriter, rules, printer and measurement unit tests, plus the
head-op-indexing differential gate (DESIGN.md section 13): indexed and
linear-scan rewriting must be bit-identical on the full AES VC corpus."""

from functools import lru_cache

import pytest

from repro.logic import (
    FALSE, TRUE, NormalizationCache, Rewriter, RewriteBudgetExceeded, add,
    band, conj, decide_relation, default_rules, disj, eq, fingerprint,
    forall, implies, intc, interval_of, ite, le, lt, mk, modi, mul, neg,
    render, render_full, rule_families, select, shr, store, sub, var, xor,
)
from tests.rewriter_reference import LinearRewriter, use_linear_scan


class TestRewriter:
    def test_raw_terms_are_canonicalized(self):
        # Shape-preserving substitution leaves raw nodes; the rewriter must
        # fold them (regression: (I + 1) + -1 failed to fold).
        raw = mk("add", (mk("add", (var("i"), intc(1))), intc(-1)))
        rewriter = Rewriter(default_rules())
        assert rewriter.normalize(raw) is var("i")

    def test_interval_rule_discharges_bounds(self):
        rewriter = Rewriter(default_rules())
        goal = le(band(var("x"), intc(255)), intc(255))
        assert rewriter.normalize(goal) is TRUE

    def test_vacuous_forall_rule(self):
        rewriter = Rewriter(default_rules())
        k = var("k?")
        body = implies(conj(le(intc(0), k), le(k, intc(-1))),
                       eq(select(var("a"), k), intc(0)))
        assert rewriter.normalize(forall(["k?"], body)) is TRUE

    def test_not_relation_rule(self):
        rewriter = Rewriter(default_rules())
        assert rewriter.normalize(neg(lt(var("a"), var("b")))) is \
            le(var("b"), var("a"))

    def test_budget_exceeded(self):
        rewriter = Rewriter(default_rules(), max_work=5)
        big = xor(*[band(var(f"x{i}"), intc(255)) for i in range(50)])
        with pytest.raises(RewriteBudgetExceeded):
            rewriter.normalize(le(big, intc(10**9)))

    def test_work_accounting(self):
        rewriter = Rewriter(default_rules())
        rewriter.normalize(le(modi(var("x"), intc(16)), intc(15)))
        assert rewriter.stats.work > 0
        assert rewriter.stats.rules_applied >= 1

    def test_family_exclusion(self):
        rules = default_rules(exclude_families=("bounds",))
        rewriter = Rewriter(rules)
        goal = le(band(var("x"), intc(255)), intc(255))
        assert rewriter.normalize(goal) is not TRUE

    def test_rule_families_complete(self):
        assert set(rule_families()) == {"bounds", "boolean", "equality",
                                        "arrays"}


class TestIntervals:
    def test_shr_of_masked(self):
        t = shr(band(var("x"), intc(0xFFFF)), intc(8))
        assert interval_of(t) == (0, 0xFF)

    def test_mod_literal(self):
        assert interval_of(modi(var("x"), intc(4))) == (0, 3)

    def test_decide_relation_with_env(self):
        env = {"i": (0, 9)}
        assert decide_relation(le(var("i"), intc(9)), env=env) is True
        assert decide_relation(lt(intc(10), var("i")), env=env) is False

    def test_hook_overrides(self):
        hook = lambda t: (0, 7) if t.op == "var" and t.value == "b" else None
        assert decide_relation(le(var("b"), intc(7)), hook=hook) is True


class TestRender:
    def test_infix_forms(self):
        # Commutative arguments are ordered by interning id, which depends
        # on construction history; accept either order.
        assert render_full(add(var("x"), intc(1))) in ("(x + 1)", "(1 + x)")
        assert render_full(select(var("a"), intc(3))) == "a[3]"
        assert render_full(ite(var("p"), intc(1), intc(2))) == \
            "(if p then 1 else 2)"
        text = render_full(store(var("a"), intc(0), intc(9)))
        assert text == "store(a, 0, 9)"

    def test_forall_renders(self):
        q = forall(["k?"], lt(var("k?"), var("n")))
        assert render_full(q) == "(forall k?: (k? < n))"

    def test_budget_truncates(self):
        big = xor(*[var(f"verylongname{i}") for i in range(100)])
        text = render(big, max_chars=50)
        assert len(text) <= 60
        assert text.endswith("…")

    def test_deep_term_renders_iteratively(self):
        t = var("x")
        for _ in range(5000):  # deeper than the default recursion limit
            t = mk("not", (t,))  # raw: the builder would fold double negation
        assert render(t, max_chars=100).endswith("…")


@lru_cache(maxsize=1)
def _aes_corpus():
    """The full refactored-AES VC corpus: (typed, [(subprogram, terms)])."""
    from repro.aes import refactored_package
    from repro.vcgen import generate_obligations

    typed = refactored_package()
    corpus = []
    for sp in typed.package.subprograms:
        obls = generate_obligations(typed, typed.signatures[sp.name])
        if obls:
            corpus.append((sp.name, [o.term for o in obls]))
    return typed, corpus


class TestHeadOpIndexing:
    """The differential gate: head-op dispatch is a pure pruning of rules
    that could not have fired, so it must be *invisible* -- identical
    normal forms, identical memo tables, identical RewriteStats."""

    def test_every_rule_family_declares_ops(self):
        for family, rules in rule_families().items():
            for rule in rules:
                assert rule.ops, \
                    f"{family}/{rule.name} must declare its root operators"

    def test_full_aes_corpus_indexed_identical_to_linear(self):
        from repro.vcgen.simplifier import TypeBoundHook

        typed, corpus = _aes_corpus()
        total_hits = total_skipped = 0
        for name, terms in corpus:
            hook = TypeBoundHook(typed, name)
            lin = LinearRewriter(default_rules(hook=hook))
            idx = Rewriter(default_rules(hook=hook))
            ref = [lin.normalize(t) for t in terms]
            got = [idx.normalize(t) for t in terms]
            assert all(a is b for a, b in zip(ref, got))
            assert lin._memo == idx._memo
            assert lin.stats == idx.stats          # nodes/rewrites/work
            assert lin.stats.work == idx.stats.work
            assert lin.stats.index_hits == 0
            total_hits += idx.stats.index_hits
            total_skipped += idx.stats.index_skipped_rules
        # the gate is vacuous unless indexing actually pruned something
        assert total_hits > 0 and total_skipped > 0

    def test_full_aes_corpus_shared_cache_identical_normal_forms(self):
        """Per-VC fresh rewriters (the prover's protocol) with the
        cross-obligation cache: same normal forms as the linear scan."""
        from repro.vcgen.simplifier import TypeBoundHook

        typed, corpus = _aes_corpus()
        cache = NormalizationCache()
        cross_hits = 0
        for name, terms in corpus:
            hook = TypeBoundHook(typed, name)
            scope = cache.scope(f"gate|{name}|")
            for t in terms:
                ref = LinearRewriter(default_rules(hook=hook)).normalize(t)
                rw = Rewriter(default_rules(hook=hook), shared=scope)
                assert rw.normalize(t) is ref
                cross_hits += rw.stats.cross_vc_hits
        assert cross_hits > 0
        assert cache.hits == cross_hits
        assert len(cache) > 0

    def test_examiner_verdicts_identical_without_indexing(self, monkeypatch):
        """Whole-pipeline differential: examination (vcgen + simplify)
        with the linear-scan reference in place of indexing must reach the
        same discharge verdicts and the same simplified normal forms
        for every AES VC."""
        from repro.aes.annotations import annotated_package
        from repro.vcgen import Examiner

        def signature(report):
            return [
                (a.name, vc.name, vc.kind, vc.discharged_by_simplifier,
                 fingerprint(vc.simplified.simplified))
                for a in report.per_subprogram.values() for vc in a.vcs
            ]

        typed = annotated_package()
        indexed = Examiner(typed).examine()
        use_linear_scan(monkeypatch)
        linear = Examiner(typed).examine()
        assert signature(indexed) == signature(linear)
        assert indexed.discharged_count == linear.discharged_count
        assert indexed.work_units == linear.work_units
        assert indexed.index_hits > 0
        assert linear.index_hits == 0

    def test_cross_backend_verdicts_identical(self, monkeypatch):
        """Serial and process backends (indexed; each process worker
        fills its own normalization cache) and the linear-scan serial
        reference all produce identical per-VC verdicts."""
        from repro.exec import ExecConfig
        from repro.prover import ImplementationProof
        from tests.test_exec_cache import small_package

        def run(backend, jobs=2):
            return ImplementationProof(
                small_package(),
                exec=ExecConfig(jobs=jobs, backend=backend,
                                cache=False)).run()

        def signature(result):
            return [(o.vc.subprogram, o.vc.name, o.vc.kind, o.stage,
                     o.result.proved if o.result else None)
                    for o in result.outcomes]

        serial = run("serial", jobs=1)
        process = run("process")
        use_linear_scan(monkeypatch)
        linear = run("serial", jobs=1)
        assert signature(process) == signature(serial)
        assert signature(linear) == signature(serial)
        assert linear.auto_percent == serial.auto_percent
