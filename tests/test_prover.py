"""Prover tests: ground evaluation, congruence closure, auto prover,
tactics, and the implementation-proof session."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.lang import analyze, parse_package
from repro.logic import (
    FALSE, TRUE, add, apply, band, conj, eq, forall, implies, intc, le, lt,
    mul, ne, neg, select, store, var, xor,
)
from repro.prover import (
    AutoProver, Cases, CongruenceClosure, Expand, Extensionality,
    GroundEvaluator, ImplementationProof, InteractiveProver, ProofScript,
    package_axioms,
)


def analyzed(src):
    return analyze(parse_package(src))


TABLE_PKG = analyzed("""
package P is
   type Byte is mod 256;
   type Table is array (0 .. 255) of Byte;
   Inv : constant Table := (0, 255, 254, 253, 252, 251, 250, 249, others => 7);
   function AddOne (X : in Byte) return Byte
   --# post Result = X + 1;
   is
   begin
      return X + 1;
   end AddOne;
   --# function Spec_Inv (X : in Byte) return Byte;
   --# rule Inv_Def: (for all X in 0 .. 7 => (Spec_Inv (Byte (X)) = Inv (X)));
end P;
""")


class TestGroundEvaluator:
    def setup_method(self):
        self.ev = GroundEvaluator(TABLE_PKG)

    def test_arith(self):
        assert self.ev.evaluate(add(intc(2), intc(3))) == 5
        assert self.ev.evaluate(mul(intc(4), intc(5))) == 20
        assert self.ev.evaluate(xor(intc(0xF0), intc(0xFF))) == 0x0F

    def test_open_term_is_none(self):
        assert self.ev.evaluate(add(var("x"), intc(1))) is None

    def test_table_application(self):
        assert self.ev.evaluate(apply("Inv", intc(2))) == 254
        assert self.ev.evaluate(apply("Inv", intc(100))) == 7

    def test_defined_function_application(self):
        assert self.ev.evaluate(apply("AddOne", intc(41))) == 42

    def test_proof_function_not_evaluable(self):
        assert self.ev.evaluate(apply("Spec_Inv", intc(3))) is None

    def test_select_store(self):
        arr = store(store(var("a"), intc(0), intc(9)), intc(1), intc(8))
        # select over symbolic base is not closed
        assert self.ev.evaluate(select(arr, intc(2))) is None

    def test_relation(self):
        assert self.ev.evaluate(lt(intc(3), intc(4))) is True
        assert self.ev.evaluate(eq(intc(3), intc(4))) is False


class TestCongruenceClosure:
    def test_transitive(self):
        cc = CongruenceClosure()
        a, b, c = var("a"), var("b"), var("c")
        cc.assert_equal(a, b)
        cc.assert_equal(b, c)
        assert cc.are_equal(a, c)

    def test_congruence_on_applications(self):
        cc = CongruenceClosure()
        a, b = var("a"), var("b")
        cc.assert_equal(a, b)
        assert cc.are_equal(apply("f", a), apply("f", b))

    def test_nested_congruence(self):
        cc = CongruenceClosure()
        a, b = var("a"), var("b")
        cc.assert_equal(a, b)
        assert cc.are_equal(apply("f", apply("g", a)), apply("f", apply("g", b)))

    def test_disequality_contradiction(self):
        cc = CongruenceClosure()
        a, b = var("a"), var("b")
        cc.assert_disequal(a, b)
        cc.assert_equal(a, b)
        assert cc.contradiction

    def test_literal_merge_contradiction(self):
        cc = CongruenceClosure()
        cc.assert_equal(var("a"), intc(1))
        cc.assert_equal(var("a"), intc(2))
        assert cc.contradiction

    def test_literal_disequality(self):
        cc = CongruenceClosure()
        cc.assert_equal(var("a"), intc(1))
        cc.assert_equal(var("b"), intc(2))
        assert cc.are_disequal(var("a"), var("b"))


class TestCongruenceDifferential:
    """The incremental closure against a naive fixpoint reference, on
    random equality and disequality sets over shared subterms."""

    ATOMS = (var("a"), var("b"), var("c"), intc(0), intc(1), TRUE,
             FALSE)

    @staticmethod
    def _pool(draw_shape):
        terms = list(TestCongruenceDifferential.ATOMS)
        for kind, i, j in draw_shape:
            x, y = terms[i % len(terms)], terms[j % len(terms)]
            terms.append(apply("f", x) if kind == 0 else
                         apply("g", x, y) if kind == 1 else add(x, y))
        return terms

    @staticmethod
    def _agree(cc, ref, a, b):
        assert cc.are_equal(a, b) == ref.are_equal(a, b)
        contradiction = ref.contradiction
        assert cc.contradiction == contradiction
        if not contradiction:
            assert cc.are_disequal(a, b) == ref.are_disequal(a, b)

    @settings(max_examples=120, deadline=None)
    @given(shape=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 40),
                                    st.integers(0, 40)),
                          min_size=2, max_size=14),
           script=st.lists(st.tuples(st.sampled_from("=!?"),
                                     st.integers(0, 40),
                                     st.integers(0, 40)),
                           min_size=1, max_size=10))
    def test_answers_match_naive_reference(self, shape, script):
        from tests.congruence_reference import NaiveCongruenceClosure
        terms = self._pool(shape)
        cc, ref = CongruenceClosure(), NaiveCongruenceClosure()
        for kind, i, j in script:
            a, b = terms[i % len(terms)], terms[j % len(terms)]
            if kind == "=":
                cc.assert_equal(a, b)
                ref.assert_equal(a, b)
            elif kind == "!":
                cc.assert_disequal(a, b)
                ref.assert_disequal(a, b)
            else:
                self._agree(cc, ref, a, b)
        for a in terms[::3]:
            for b in terms[1::3]:
                self._agree(cc, ref, a, b)

    def test_literal_clash_through_congruence(self):
        from tests.congruence_reference import NaiveCongruenceClosure
        a, b = var("a"), var("b")
        for impl in (CongruenceClosure(), NaiveCongruenceClosure()):
            impl.assert_equal(apply("f", a), intc(0))
            impl.assert_equal(apply("f", b), intc(1))
            assert not impl.contradiction
            impl.assert_equal(a, b)
            assert impl.contradiction

    def test_one_and_true_do_not_clash(self):
        """Literal values compare with ``==``, as they always have, so a
        class holding ``1`` and ``true`` is no contradiction."""
        cc = CongruenceClosure()
        cc.assert_equal(var("a"), intc(1))
        cc.assert_equal(var("a"), TRUE)
        assert not cc.contradiction


class TestAutoProver:
    def setup_method(self):
        self.prover = AutoProver(TABLE_PKG)

    def test_ground_goal(self):
        assert self.prover.prove(eq(apply("Inv", intc(1)), intc(255))).proved

    def test_interval_goal(self):
        goal = implies(conj(le(intc(0), var("x")), le(var("x"), intc(10))),
                       le(var("x"), intc(255)))
        assert self.prover.prove(goal).proved

    def test_congruence_goal(self):
        goal = implies(eq(var("a"), var("b")),
                       eq(apply("f", var("a")), apply("f", var("b"))))
        assert self.prover.prove(goal).proved

    def test_function_contract_instantiation(self):
        # AddOne's contract: Result = X + 1, as a package axiom.
        goal = eq(apply("AddOne", var("y")),
                  __import__("repro.logic", fromlist=["modi"]).modi(
                      add(var("y"), intc(1)), intc(256)))
        assert self.prover.prove(goal).proved

    def test_proof_rule_instantiation(self):
        goal = eq(apply("Spec_Inv", intc(2)), intc(254))
        result = self.prover.prove(goal)
        assert result.proved

    def test_unprovable_stays_unproved(self):
        goal = eq(var("mystery"), intc(0))
        assert not self.prover.prove(goal).proved

    @staticmethod
    def _clocks(monkeypatch, step):
        """Every clock of the ``time`` module advances ``step`` seconds
        at each reading."""
        import time
        readings = [0.0]

        def tick():
            readings[0] += step
            return readings[0]

        for name in ("time", "monotonic", "perf_counter", "thread_time",
                     "process_time"):
            monkeypatch.setattr(time, name, tick)

    #: Needs several interval decisions: one per conjunct.
    BUDGETED_GOAL = implies(conj(le(intc(0), var("x")),
                                 le(var("x"), intc(10))),
                            conj(le(var("x"), intc(255)),
                                 lt(var("x"), intc(11)),
                                 le(intc(-3), var("x"))))

    def _units_needed(self):
        prover = AutoProver(TABLE_PKG)
        assert prover.prove(self.BUDGETED_GOAL).proved
        assert prover.work_spent >= 2
        return prover.work_spent

    @pytest.mark.parametrize("step", [0.0, 100.0])
    def test_decided_within_budget_whatever_the_clocks_read(
            self, monkeypatch, step):
        needed = self._units_needed()
        self._clocks(monkeypatch, step)
        prover = AutoProver(TABLE_PKG, work_budget=needed)
        assert prover.prove(self.BUDGETED_GOAL).proved
        assert prover.work_spent == needed

    @pytest.mark.parametrize("step", [0.0, 100.0])
    def test_past_budget_gives_up_whatever_the_clocks_read(
            self, monkeypatch, step):
        needed = self._units_needed()
        self._clocks(monkeypatch, step)
        prover = AutoProver(TABLE_PKG, work_budget=needed - 1)
        result = prover.prove(self.BUDGETED_GOAL)
        assert not result.proved and result.method == "timeout"
        assert prover.work_spent == needed - 1

    def test_session_and_tactic_stage_share_the_budget(self):
        from repro.prover.auto import WORK_BUDGET
        assert InteractiveProver(TABLE_PKG).auto.work_budget == WORK_BUDGET
        assert AutoProver(TABLE_PKG).work_budget is None
        assert f"work_budget={WORK_BUDGET}" in \
            ImplementationProof(TABLE_PKG)._prover_config()

    def test_forall_small_range_expansion(self):
        k = var("k?")
        goal = forall(
            ["k?"],
            implies(conj(le(intc(0), k), le(k, intc(7))),
                    le(apply("Inv", k), intc(255))))
        assert self.prover.prove(goal).proved

    def test_disjunction_split(self):
        from repro.logic import disj
        goal = implies(
            disj(eq(var("x"), intc(1)), eq(var("x"), intc(2))),
            conj(le(intc(1), var("x")), le(var("x"), intc(2))))
        assert self.prover.prove(goal).proved


class TestTactics:
    def test_expand_tactic(self):
        typed = analyzed("""
package P is
   type Byte is mod 256;
   function Twice (X : in Byte) return Byte is
   begin
      return X xor X;
   end Twice;
end P;
""")
        prover = InteractiveProver(typed)
        goal = eq(apply("Twice", var("y")), intc(0))
        script = ProofScript(name="expand-twice", tactics=(Expand("Twice"),))
        assert prover.run_script(goal, script).proved

    def test_cases_tactic(self):
        typed = analyzed("""
package P is
   type Byte is mod 256;
end P;
""")
        prover = InteractiveProver(typed)
        # Provable only by trying each value: x in 0..3 => x*x <= 9.
        goal = implies(conj(le(intc(0), var("x")), le(var("x"), intc(3))),
                       le(mul(var("x"), var("x")), intc(9)))
        script = ProofScript(name="cases", tactics=(Cases("x", 0, 3),))
        assert prover.run_script(goal, script).proved

    def test_extensionality_tactic(self):
        typed = analyzed("package P is end P;")
        prover = InteractiveProver(typed)
        a = store(var("base"), intc(0), intc(5))
        b = store(var("base"), intc(0), intc(5))
        goal = eq(a, b)  # identical already; builders fold to true
        assert goal is TRUE

    def test_failed_script_reports(self):
        typed = analyzed("package P is end P;")
        prover = InteractiveProver(typed)
        goal = eq(var("p"), var("q"))
        script = ProofScript(name="hopeless", tactics=())
        result = prover.run_script(goal, script)
        assert not result.proved


class TestImplementationProofSession:
    SRC = """
package P is
   type Byte is mod 256;
   type Arr is array (0 .. 7) of Byte;

   procedure Invert (A : in Arr; B : out Arr)
   --# post for all K in 0 .. 7 => (B (K) = (A (K) xor 255));
   is
   begin
      for I in 0 .. 7 loop
         --# assert for all K in 0 .. I - 1 => (B (K) = (A (K) xor 255));
         B (I) := A (I) xor 255;
      end loop;
   end Invert;
end P;
"""

    def test_session_discharges_annotated_loop(self):
        typed = analyzed(self.SRC)
        result = ImplementationProof(typed).run()
        assert result.feasible
        assert result.total_vcs > 0
        # Everything must go through automatically for this small example.
        assert result.all_proved, result.undischarged_kinds()

    def test_auto_percent_and_subprogram_rollup(self):
        typed = analyzed(self.SRC)
        result = ImplementationProof(typed).run()
        assert result.auto_percent == 100.0
        assert result.fully_automatic_subprograms() == ["Invert"]


class TestWorkBudgetDeterminism:
    """Give-ups end on a count of work, so two serial proofs of the
    subprograms that run into the budget agree on everything they
    report, the hot-path counters included."""

    SUBPROGRAMS = ["Key_Schedule_128", "Mix_Columns"]

    def _run(self, spent):
        from repro.aes import aes_proof_scripts, annotated_package
        from repro.exec import ExecConfig
        result = ImplementationProof(
            annotated_package(), scripts=aes_proof_scripts(),
            exec=ExecConfig(jobs=1, backend="serial", cache=False)).run(
            self.SUBPROGRAMS)
        return ([(o.vc.subprogram, o.vc.name, o.stage)
                 for o in result.outcomes],
                list(spent),
                {name: (a.index_hits, a.index_skipped_rules, a.cross_vc_hits)
                 for name, a in result.report.per_subprogram.items()})

    def test_two_serial_proofs_agree(self, monkeypatch):
        from repro.prover.auto import WORK_BUDGET
        spent = []
        prove = AutoProver.prove

        def recording(self, term):
            result = prove(self, term)
            spent.append((self.subprogram_name, result.method,
                          self.work_spent))
            return result

        monkeypatch.setattr(AutoProver, "prove", recording)
        first = self._run(spent)
        spent.clear()
        second = self._run(spent)
        assert first == second
        stages, calls, _ = first
        assert "undischarged" not in {stage for _, _, stage in stages}
        give_ups = [units for _, method, units in calls
                    if method == "timeout"]
        assert give_ups and all(u == WORK_BUDGET for u in give_ups)
        assert all(units <= WORK_BUDGET for _, method, units in calls
                   if method != "timeout")


class TestOrderIndependence:
    """Each VC is discharged alone, so its verdict is a function of the
    VC: the residual VCs of the ledger's ``impl_proof`` subprograms plus
    ``Mix_Columns`` (scripted VCs and auto-prover give-ups among them),
    discharged forward, reversed and shuffled in one process with one
    shared normalization cache, agree VC by VC.  This is what lets the
    process backend run a subprogram's VCs in any order."""

    LEFT_OUT = ("Inv_Mix_Columns", "Key_Schedule_128", "Key_Schedule_192",
                "Key_Schedule_256")

    def test_forward_reversed_and_shuffled_agree(self):
        import random
        from repro.aes import aes_proof_scripts, annotated_package
        from repro.logic import NormalizationCache
        from repro.prover.session import discharge_vc
        from repro.vcgen import Examiner
        typed = annotated_package()
        scripts = aes_proof_scripts()
        names = [sp.name for sp in typed.package.subprograms
                 if sp.name not in self.LEFT_OUT]
        shared = NormalizationCache()
        report = Examiner(typed, shared=shared).examine(names)
        vcs = [vc for analysis in report.per_subprogram.values()
               for vc in analysis.vcs if not vc.discharged_by_simplifier]

        def verdicts(order):
            out = {}
            for vc in order:
                stage, result = discharge_vc(
                    typed, vc.subprogram, vc.simplified.simplified,
                    scripts.get(vc.subprogram, ()), shared=shared)
                out[vc.subprogram, vc.name] = (
                    stage, result.proved, result.method, result.detail)
            return out

        forward = verdicts(vcs)
        assert verdicts(vcs[::-1]) == forward
        assert verdicts(random.Random(25).sample(vcs, len(vcs))) == forward
        assert len(forward) == len(vcs)
        stages = {stage for stage, *_ in forward.values()}
        assert stages == {"auto", "interactive"}
        assert any(sp == "Mix_Columns" and stage == "interactive"
                   for (sp, _), (stage, *_) in forward.items())


class TestConjDetailHashSeed:
    """A ``conj`` proof's detail names its parts' methods in first-seen
    order, not in set order, so it reads the same under every hash seed
    (disk-cache records and telemetry are written by many processes)."""

    CODE = (
        "import json\n"
        "from repro.aes import aes_proof_scripts, annotated_package\n"
        "from repro.exec import ExecConfig\n"
        "from repro.prover import ImplementationProof\n"
        "result = ImplementationProof(\n"
        "    annotated_package(), scripts=aes_proof_scripts(),\n"
        "    exec=ExecConfig(cache=False)).run(['Rcon_Word'])\n"
        "print(json.dumps([[o.vc.name, o.result.method, o.result.detail]\n"
        "                  for o in result.outcomes if o.result]))\n")

    def _details(self, seed):
        import json
        import os
        import subprocess
        import sys
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        env.pop("REPRO_CACHE_DIR", None)
        done = subprocess.run([sys.executable, "-c", self.CODE], env=env,
                              capture_output=True, text=True, timeout=300,
                              check=True)
        return json.loads(done.stdout)

    def test_rcon_word_details_do_not_depend_on_hash_seed(self):
        first = self._details(1)
        assert any(method == "conj" and "," in detail
                   for _, method, detail in first)
        assert self._details(2) == first
