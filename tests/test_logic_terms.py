"""Unit tests for the hash-consed term core."""

import pytest

from repro.logic import (
    FALSE, TRUE, add, band, boolc, bor, conj, disj, eq, forall, implies,
    intc, ite, le, lt, mk, modi, mul, neg, select, shl, shr, store, sub,
    substitute, substitute_simplifying, var, xor,
)
from repro.logic.measure import dag_size, max_depth, tree_bytes, tree_size


class TestHashConsing:
    def test_structural_equality_is_identity(self):
        a = add(var("x"), intc(1))
        b = add(var("x"), intc(1))
        assert a is b

    def test_commutative_canonical_order(self):
        assert add(var("x"), var("y")) is add(var("y"), var("x"))
        assert xor(var("a"), var("b")) is xor(var("b"), var("a"))
        assert conj(var("p"), var("q")) is conj(var("q"), var("p"))

    def test_distinct_terms_distinct(self):
        assert add(var("x"), intc(1)) is not add(var("x"), intc(2))


class TestBuilders:
    def test_conj_units(self):
        p = var("p")
        assert conj() is TRUE
        assert conj(p) is p
        assert conj(p, TRUE) is p
        assert conj(p, FALSE) is FALSE
        assert conj(p, p) is p

    def test_disj_units(self):
        p = var("p")
        assert disj() is FALSE
        assert disj(p, FALSE) is p
        assert disj(p, TRUE) is TRUE

    def test_conj_flattening(self):
        p, q, r = var("p"), var("q"), var("r")
        assert conj(conj(p, q), r) is conj(p, q, r)

    def test_neg(self):
        p = var("p")
        assert neg(TRUE) is FALSE
        assert neg(neg(p)) is p

    def test_implies(self):
        p, q = var("p"), var("q")
        assert implies(TRUE, q) is q
        assert implies(FALSE, q) is TRUE
        assert implies(p, TRUE) is TRUE
        assert implies(p, FALSE) is neg(p)
        assert implies(p, p) is TRUE

    def test_ite(self):
        p, a, b = var("p"), var("a"), var("b")
        assert ite(TRUE, a, b) is a
        assert ite(FALSE, a, b) is b
        assert ite(p, a, a) is a

    def test_arith_folding(self):
        assert add(intc(2), intc(3)) is intc(5)
        assert add(var("x"), intc(0)) is var("x")
        assert mul(intc(2), intc(3)) is intc(6)
        assert mul(var("x"), intc(0)) is intc(0)
        assert mul(var("x"), intc(1)) is var("x")
        assert sub(intc(7), intc(3)) is intc(4)

    def test_relations_folding(self):
        assert lt(intc(1), intc(2)) is TRUE
        assert lt(intc(2), intc(2)) is FALSE
        assert le(intc(2), intc(2)) is TRUE
        assert le(var("x"), var("x")) is TRUE
        assert eq(intc(5), intc(5)) is TRUE
        assert eq(intc(5), intc(6)) is FALSE

    def test_bitwise_folding(self):
        assert xor(intc(0xF0), intc(0x0F)) is intc(0xFF)
        x = var("x")
        assert xor(x, x) is intc(0)
        assert xor(x, intc(0)) is x
        assert xor(x, x, x) is x
        assert band(x, intc(0)) is intc(0)
        assert bor(x, intc(0)) is x
        assert shl(intc(1), intc(4)) is intc(16)
        assert shr(intc(255), intc(4)) is intc(15)

    def test_mod_folding(self):
        assert modi(intc(17), intc(5)) is intc(2)
        assert modi(var("x"), intc(1)) is intc(0)

    def test_select_over_store(self):
        a, i, j, v = var("a"), var("i"), var("j"), var("v")
        assert select(store(a, i, v), i) is v
        assert select(store(a, intc(1), v), intc(2)) is select(a, intc(2))
        # undecided indices stay symbolic
        got = select(store(a, i, v), j)
        assert got.op == "select"

    def test_forall_drops_unused(self):
        body = lt(var("i"), intc(4))
        q = forall(["i", "junk"], body)
        assert q.value == ("i",)
        assert forall(["z"], TRUE) is TRUE


class TestFreeVars:
    def test_free_vars_basic(self):
        t = add(var("x"), mul(var("y"), intc(3)))
        assert t.free_vars() == frozenset({"x", "y"})

    def test_free_vars_quantifier(self):
        q = forall(["i"], lt(var("i"), var("n")))
        assert q.free_vars() == frozenset({"n"})

    def test_free_vars_shared_diamond(self):
        shared = add(var("c"), intc(1))
        t = conj(eq(var("a"), shared), eq(var("b"), shared))
        assert t.free_vars() == frozenset({"a", "b", "c"})


class TestSubstitution:
    def test_basic(self):
        t = add(var("x"), intc(1))
        assert substitute(t, {"x": intc(4)}).op == "add"  # raw: no folding
        assert substitute_simplifying(t, {"x": intc(4)}) is intc(5)

    def test_no_change_returns_same_object(self):
        t = add(var("x"), intc(1))
        assert substitute(t, {"zzz": intc(0)}) is t

    def test_parallel(self):
        t = sub(var("x"), var("y"))
        got = substitute_simplifying(t, {"x": var("y"), "y": var("x")})
        assert got is sub(var("y"), var("x"))

    def test_bound_variables_untouched(self):
        q = forall(["i"], lt(var("i"), var("n")))
        got = substitute(q, {"i": intc(0), "n": intc(9)})
        assert got.value == ("i",)
        assert got.args[0] is mk("lt", (var("i"), intc(9)))

    def test_capture_avoided(self):
        # forall i. i < n  with  n := i + 1  must alpha-rename the binder.
        q = forall(["i"], lt(var("i"), var("n")))
        got = substitute(q, {"n": add(var("i"), intc(1))})
        assert got.op == "forall"
        bound = got.value[0]
        assert bound != "i"
        assert "i" in got.free_vars()


class TestMeasure:
    def test_leaf_sizes(self):
        assert tree_size(intc(5)) == 1
        assert dag_size(intc(5)) == 1
        assert max_depth(intc(5)) == 1

    def test_shared_diamond_tree_vs_dag(self):
        shared = add(var("x"), intc(1))
        t = mul(shared, shared)
        # one mul node + one shared add counted twice in tree form
        assert dag_size(t) == 4
        assert tree_size(t) == 7

    def test_exponential_tree_linear_dag(self):
        t = var("x")
        for _ in range(64):
            t = mk("mul", (t, t))
        assert dag_size(t) == 65
        assert tree_size(t) == 2 ** 65 - 1
        assert tree_bytes(t) > 2 ** 64

    def test_tree_bytes_positive_monotone(self):
        small = add(var("x"), intc(1))
        big = mul(small, small, var("y"))
        assert 0 < tree_bytes(small) < tree_bytes(big)


class TestIterDag:
    def test_postorder_children_first(self):
        inner = add(var("x"), intc(1))
        outer = mul(inner, var("y"))
        order = list(outer.iter_dag())
        assert order.index(inner) < order.index(outer)
        assert order[-1] is outer

    def test_each_node_once(self):
        shared = add(var("x"), intc(1))
        t = mul(shared, shared)
        nodes = list(t.iter_dag())
        assert len(nodes) == len({n._id for n in nodes})


class TestConcurrentInterning:
    def test_eight_threads_intern_identical_terms(self):
        """Hash-consing must stay sound under concurrent construction:
        every thread building the same term must get the *same* node
        (identity is equality), and distinct terms must stay distinct.
        Regression test for the interning table's double-checked locking."""
        import threading

        n_threads = 8
        results = [None] * n_threads
        barrier = threading.Barrier(n_threads)

        def build(slot):
            barrier.wait()  # maximise construction overlap
            terms = []
            for i in range(200):
                t = implies(
                    conj(le(intc(0), var(f"x{i}")),
                         lt(var(f"x{i}"), intc(256))),
                    eq(xor(var(f"x{i}"), var("k")), intc(i % 256)))
                terms.append(t)
            results[slot] = terms

        threads = [threading.Thread(target=build, args=(slot,))
                   for slot in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        reference = results[0]
        for other in results[1:]:
            assert all(a is b for a, b in zip(reference, other))
        # distinct i -> distinct nodes
        assert len({t._id for t in reference}) == len(reference)

    def test_eight_threads_free_vars_cache(self):
        """Concurrent free-variable queries over a shared deep term must
        all see the same answer (the per-call cache publishes via
        setdefault; races are benign)."""
        import threading

        t = TRUE
        for i in range(100):
            t = conj(implies(eq(var(f"a{i}"), intc(i)), t),
                     lt(var("pivot"), intc(i + 1)))
        expected = t.free_vars()

        outcomes = []
        barrier = threading.Barrier(8)

        def query():
            barrier.wait()
            outcomes.append(t.free_vars())

        threads = [threading.Thread(target=query) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert all(o == expected for o in outcomes)


# ---------------------------------------------------------------------------
# Substitution: the explicit-stack walk against the generator reference
# ---------------------------------------------------------------------------

import importlib  # noqa: E402
import itertools  # noqa: E402

import hypothesis.strategies as st  # noqa: E402
from hypothesis import given, settings  # noqa: E402

from repro.logic import apply, exists  # noqa: E402
from tests import substitute_reference as subst_reference  # noqa: E402

#: The module, not the function ``repro.logic`` exports under its name.
subst_engine = importlib.import_module("repro.logic.substitute")

_NAMES = ("x", "y", "z")


def _terms(depth):
    leaf = st.one_of(st.sampled_from([var(n) for n in _NAMES]),
                     st.integers(0, 3).map(intc))
    if depth == 0:
        return leaf
    sub = _terms(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, sub).map(lambda p: add(*p)),
        st.tuples(sub, sub).map(lambda p: eq(*p)),
        st.tuples(sub, sub).map(lambda p: mk("and", p)),
        sub.map(lambda t: apply("f", t)),
        st.tuples(st.sampled_from([("x",), ("y",), ("x", "y")]),
                  sub).map(lambda p: mk("forall", (p[1],), p[0])),
        st.tuples(st.sampled_from([("x",), ("z",)]),
                  sub).map(lambda p: exists(*p)),
    )


def _both(fn_name, term, mapping):
    """(engine result, reference result), each from a fresh counter;
    both must draw the same number of fresh names."""
    subst_engine._fresh_counter = itertools.count(1)
    new = getattr(subst_engine, fn_name)(term, mapping)
    drawn = next(subst_engine._fresh_counter)
    subst_engine._fresh_counter = itertools.count(1)
    ref = getattr(subst_reference, fn_name)(term, mapping)
    assert next(subst_engine._fresh_counter) == drawn
    return new, ref


class TestSubstituteAgainstGeneratorReference:
    @pytest.fixture(autouse=True)
    def _restore_counter(self, monkeypatch):
        monkeypatch.setattr(subst_engine, "_fresh_counter",
                            subst_engine._fresh_counter)

    @settings(max_examples=150, deadline=None)
    @given(term=_terms(4),
           mapping=st.dictionaries(st.sampled_from(_NAMES), _terms(2),
                                   min_size=1, max_size=3))
    def test_identical_term_and_fresh_names(self, term, mapping):
        for fn_name in ("substitute", "substitute_simplifying"):
            new, ref = _both(fn_name, term, mapping)
            assert new is ref

    def test_two_capturing_binders_draw_names_left_to_right(self):
        x, y = var("x"), var("y")
        node = mk("and", (forall(["x"], eq(apply("f", x), y)),
                          forall(["x"], lt(x, y))))
        mapping = {"y": apply("g", x)}   # captured by both binders
        new, ref = _both("substitute_simplifying", node, mapping)
        assert new is ref   # (the smart ``and`` orders its args)
        new, ref = _both("substitute", node, mapping)
        assert new is ref
        assert [a.value for a in new.args] == [("x~1",), ("x~2",)]
        assert new.args[0].args[0] is eq(apply("f", var("x~1")),
                                         apply("g", x))

    def test_shared_capturing_binder_renamed_per_visit(self):
        """A renamed quantifier is cached under its new name, so a second
        occurrence of the same binder is renamed again, in visit order."""
        x, y = var("x"), var("y")
        q = forall(["x"], lt(x, y))
        node = mk("and", (q, apply("h", q)))
        new, ref = _both("substitute", node, {"y": x})
        assert new is ref
        assert new.args[0].value == ("x~1",)
        assert new.args[1].args[0].value == ("x~2",)

    def test_every_call_of_a_proof_matches(self, monkeypatch):
        """Record every top-level substitution of a small implementation
        proof with the counter it started from; the reference replays
        each one to the identical term."""
        from repro.aes import annotated_package, aes_proof_scripts
        from repro.exec import ExecConfig
        from repro.prover import ImplementationProof
        calls = []
        depth = [0]
        engine_subst = subst_engine._subst

        def recording(term, mapping, rebuild, cache):
            if depth[0] or cache:
                return engine_subst(term, mapping, rebuild, cache)
            start = next(subst_engine._fresh_counter)
            subst_engine._fresh_counter = itertools.count(start)
            depth[0] += 1
            try:
                out = engine_subst(term, mapping, rebuild, cache)
            finally:
                depth[0] -= 1
            calls.append((term, dict(mapping), rebuild, start, out))
            return out

        monkeypatch.setattr(subst_engine, "_subst", recording)
        ImplementationProof(
            annotated_package(), scripts=aes_proof_scripts(),
            exec=ExecConfig(jobs=1, backend="serial", cache=False)).run(
            ["Add_Round_Key", "Sub_Bytes", "Shift_Rows"])
        monkeypatch.setattr(subst_engine, "_subst", engine_subst)
        assert len(calls) > 100
        for term, mapping, rebuild, start, out in calls:
            subst_engine._fresh_counter = itertools.count(start)
            assert subst_reference._subst(term, mapping, rebuild, {}) is out
