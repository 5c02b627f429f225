"""Prover tests: ground evaluation, congruence closure, auto prover,
tactics, and the implementation-proof session."""

import pytest

from repro.lang import analyze, parse_package
from repro.logic import (
    TRUE, add, apply, band, conj, eq, forall, implies, intc, le, lt, mul,
    ne, neg, select, store, var, xor,
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

    def _clocked(self, monkeypatch, wall_step, cpu_step):
        """Patch the prover's clock: every reading advances wall time by
        ``wall_step`` and thread CPU time by ``cpu_step`` seconds."""
        import types
        import repro.prover.auto as auto
        readings = {"wall": 0.0, "cpu": 0.0}

        def monotonic():
            readings["wall"] += wall_step
            return readings["wall"]

        def thread_time():
            readings["cpu"] += cpu_step
            return readings["cpu"]

        monkeypatch.setattr(auto, "time", types.SimpleNamespace(
            monotonic=monotonic, thread_time=thread_time))
        return readings

    BUDGETED_GOAL = implies(conj(le(intc(0), var("x")),
                                 le(var("x"), intc(10))),
                            le(var("x"), intc(255)))

    def test_budget_is_cpu_time_not_wall_time(self, monkeypatch):
        # Wall time races past the 1 s budget on every reading (a
        # loaded host); thread CPU time barely moves.  The VC is decided.
        readings = self._clocked(monkeypatch, wall_step=100.0,
                                 cpu_step=1e-6)
        result = AutoProver(TABLE_PKG, timeout_seconds=1.0).prove(
            self.BUDGETED_GOAL)
        assert result.proved
        assert readings["cpu"] > 1e-6      # the deadline was checked

    def test_cpu_time_past_budget_gives_up(self, monkeypatch):
        self._clocked(monkeypatch, wall_step=0.0, cpu_step=100.0)
        result = AutoProver(TABLE_PKG, timeout_seconds=1.0).prove(
            self.BUDGETED_GOAL)
        assert not result.proved and result.method == "timeout"

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
