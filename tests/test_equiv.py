"""Semantics-preservation (equiv) tests."""

import pytest

from repro.equiv import (
    SymbolicExecutor, UnsupportedProgram, differential_check,
    exhaustive_check, final_state, prove_equivalence,
)
from repro.lang import analyze, parse_package
from repro.logic import render_full


def analyzed(src):
    return analyze(parse_package(src))


ROLLED = analyzed("""
package P is
   type Byte is mod 256;
   type Arr is array (0 .. 3) of Byte;
   procedure Q (A : in Arr; B : out Arr) is
   begin
      for I in 0 .. 3 loop
         B (I) := A (I) xor 255;
      end loop;
   end Q;
end P;
""")

UNROLLED = analyzed("""
package P is
   type Byte is mod 256;
   type Arr is array (0 .. 3) of Byte;
   procedure Q (A : in Arr; B : out Arr) is
   begin
      B (0) := A (0) xor 255;
      B (1) := A (1) xor 255;
      B (2) := A (2) xor 255;
      B (3) := A (3) xor 255;
   end Q;
end P;
""")

WRONG = analyzed("""
package P is
   type Byte is mod 256;
   type Arr is array (0 .. 3) of Byte;
   procedure Q (A : in Arr; B : out Arr) is
   begin
      B (0) := A (0) xor 255;
      B (1) := A (1) xor 255;
      B (2) := A (2) xor 254;
      B (3) := A (3) xor 255;
   end Q;
end P;
""")


class TestSymbolicExecution:
    def test_summary_of_straight_line(self):
        typed = analyzed("""
package P is
   type Byte is mod 256;
   function F (X : in Byte) return Byte is
      T : Byte;
   begin
      T := X xor 10;
      T := T xor 10;
      return T;
   end F;
end P;
""")
        summary = SymbolicExecutor(typed).execute("F")
        assert render_full(summary.outputs["Result"]) == "X"

    def test_literal_loop_unrolls(self):
        summary = SymbolicExecutor(ROLLED.package and ROLLED).execute("Q")
        assert "B" in summary.outputs

    def test_branches_merge_with_ite(self):
        typed = analyzed("""
package P is
   function F (X : in Integer) return Integer is
      Y : Integer;
   begin
      if X > 0 then
         Y := 1;
      else
         Y := 2;
      end if;
      return Y;
   end F;
end P;
""")
        summary = SymbolicExecutor(typed).execute("F")
        assert summary.outputs["Result"].op == "ite"

    def test_early_returns_merge(self):
        typed = analyzed("""
package P is
   function F (X : in Integer) return Integer is
   begin
      if X > 0 then
         return 1;
      end if;
      return 0;
   end F;
end P;
""")
        summary = SymbolicExecutor(typed).execute("F")
        term = summary.outputs["Result"]
        assert term.op == "ite"

    def test_function_inlining(self):
        typed = analyzed("""
package P is
   type Byte is mod 256;
   function G (X : in Byte) return Byte is
   begin
      return X xor 7;
   end G;
   function F (X : in Byte) return Byte is
   begin
      return G (G (X));
   end F;
end P;
""")
        summary = SymbolicExecutor(typed).execute("F")
        assert render_full(summary.outputs["Result"]) == "X"

    def test_while_unsupported(self):
        typed = analyzed("""
package P is
   function F (X : in Integer) return Integer is
      Y : Integer;
   begin
      Y := X;
      while Y > 0 loop
         Y := Y - 1;
      end loop;
      return Y;
   end F;
end P;
""")
        with pytest.raises(UnsupportedProgram):
            SymbolicExecutor(typed).execute("F")

    def test_procedure_call_inlined(self):
        typed = analyzed("""
package P is
   type Byte is mod 256;
   procedure Inc (X : in Byte; Y : out Byte) is
   begin
      Y := X + 1;
   end Inc;
   procedure F (A : in Byte; B : out Byte) is
      T : Byte;
   begin
      Inc (A, T);
      Inc (T, B);
   end F;
end P;
""")
        summary = SymbolicExecutor(typed).execute("F")
        text = render_full(summary.outputs["B"])
        assert "A" in text and "2" in text


class TestFinalState:
    def test_final_state_function(self):
        out = final_state(ROLLED, "Q", {"A": [1, 2, 3, 4]})
        assert out["B"] == [254, 253, 252, 251]


class TestEquivalence:
    def test_rolled_equals_unrolled_symbolically(self):
        theorem = prove_equivalence(ROLLED, "Q", UNROLLED, "Q")
        assert theorem.holds and theorem.is_proof
        assert theorem.level == "symbolic"

    def test_defective_version_refuted(self):
        theorem = prove_equivalence(ROLLED, "Q", WRONG, "Q")
        assert not theorem.holds
        assert theorem.counterexample is not None

    def test_differential_check_direct(self):
        result = differential_check(ROLLED, "Q", UNROLLED, "Q", trials=16)
        assert result.holds and result.level == "sampled"

    def test_exhaustive_small_domain(self):
        left = analyzed("""
package P is
   type Byte is mod 256;
   function F (X : in Byte) return Byte is
   begin
      return X + 1;
   end F;
end P;
""")
        right = analyzed("""
package P is
   type Byte is mod 256;
   function F (X : in Byte) return Byte is
   begin
      return 1 + X;
   end F;
end P;
""")
        result = exhaustive_check(left, "F", right, "F")
        assert result.holds and result.level == "exhaustive"
        assert result.detail == "256 initial states agreed"

    def test_exhaustive_finds_single_point_defect(self):
        left = analyzed("""
package P is
   type Byte is mod 256;
   function F (X : in Byte) return Byte is
   begin
      return X xor 90;
   end F;
end P;
""")
        right = analyzed("""
package P is
   type Byte is mod 256;
   function F (X : in Byte) return Byte is
   begin
      if X = 200 then
         return 0;
      end if;
      return X xor 90;
   end F;
end P;
""")
        theorem = prove_equivalence(left, "F", right, "F")
        assert not theorem.holds and theorem.level == "exhaustive"
        assert theorem.counterexample.initial == {"X": 200}
