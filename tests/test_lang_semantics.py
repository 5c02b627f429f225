"""Type checker and interpreter tests for MiniAda."""

import pytest

from repro.lang import (
    Interpreter, RuntimeFault, StepLimitExceeded, TypeError_, analyze,
    parse_package,
)
from repro.lang import ast


def analyzed(src):
    return analyze(parse_package(src))


BASE = """
package P is

   type Byte is mod 256;
   type Word is mod 4294967296;
   subtype Small is Integer range 0 .. 9;
   type ByteArray is array (0 .. 3) of Byte;
   type Matrix is array (0 .. 1) of ByteArray;

   function Double (X : in Byte) return Byte is
   begin
      return X + X;
   end Double;

   function Gcd (A : in Integer; B : in Integer) return Integer is
      X : Integer;
      Y : Integer;
      T : Integer;
   begin
      X := A;
      Y := B;
      while Y /= 0 loop
         T := Y;
         Y := X mod Y;
         X := T;
      end loop;
      return X;
   end Gcd;

   procedure Fill (A : out ByteArray; V : in Byte) is
   begin
      for I in 0 .. 3 loop
         A (I) := V;
      end loop;
   end Fill;

   procedure SumAll (A : in ByteArray; Total : out Word) is
   begin
      Total := 0;
      for I in 0 .. 3 loop
         Total := Total + Word (A (I)) + Pad (0);
      end loop;
   end SumAll;

   function Pad (B : in Integer) return Word is
   begin
      return 0 * Word (B);
   end Pad;

end P;
"""


class TestTypecheck:
    def test_resolution_arrayref_vs_call(self):
        typed = analyzed(BASE)
        sp = typed.package.subprogram("SumAll")
        refs = [n for n in ast.walk(sp) if isinstance(n, ast.ArrayRef)]
        calls = [n for n in ast.walk(sp) if isinstance(n, ast.FuncCall)]
        assert refs and calls
        assert not [n for n in ast.walk(sp) if isinstance(n, ast.App)]

    def test_unknown_name_rejected(self):
        with pytest.raises(TypeError_, match="unknown"):
            analyzed("""
package P is
   procedure Q (X : out Integer) is
   begin
      X := Nope;
   end Q;
end P;
""")

    def test_modular_types_distinct(self):
        with pytest.raises(TypeError_):
            analyzed("""
package P is
   type Byte is mod 256;
   type Word is mod 4294967296;
   procedure Q (A : in Byte; B : in Word; C : out Word) is
   begin
      C := A + B;
   end Q;
end P;
""")

    def test_assignment_to_constant_rejected(self):
        with pytest.raises(TypeError_, match="constant"):
            analyzed("""
package P is
   K : constant Integer := 3;
   procedure Q is
   begin
      K := 4;
   end Q;
end P;
""")

    def test_condition_must_be_boolean(self):
        with pytest.raises(TypeError_):
            analyzed("""
package P is
   procedure Q (X : in Integer) is
   begin
      if X then
         null;
      end if;
   end Q;
end P;
""")

    def test_arity_mismatch(self):
        with pytest.raises(TypeError_, match="arguments"):
            analyzed("""
package P is
   function F (X : in Integer) return Integer is
   begin
      return X;
   end F;
   procedure Q (Y : out Integer) is
   begin
      Y := F (1, 2);
   end Q;
end P;
""")

    def test_out_param_needs_variable(self):
        with pytest.raises(TypeError_, match="out"):
            analyzed("""
package P is
   procedure Inner (X : out Integer) is
   begin
      X := 1;
   end Inner;
   procedure Q is
   begin
      Inner (42);
   end Q;
end P;
""")

    def test_shift_builtin_types(self):
        typed = analyzed("""
package P is
   type Word is mod 4294967296;
   function F (X : in Word) return Word is
   begin
      return Shift_Left (X, 8) or Shift_Right (X, 24);
   end F;
end P;
""")
        assert typed.package.subprogram("F").is_function

    def test_constant_table_evaluated(self):
        typed = analyzed(BASE + "")
        typed2 = analyzed("""
package P is
   type T is array (0 .. 3) of Integer;
   A : constant T := (1, 2, 3, 4);
   B : constant T := (others => 7);
end P;
""")
        assert typed2.constants["A"][1] == (1, 2, 3, 4)
        assert typed2.constants["B"][1] == (7, 7, 7, 7)


class TestInterpreter:
    def setup_method(self):
        self.typed = analyzed(BASE)
        self.interp = Interpreter(self.typed)

    def test_modular_wraparound(self):
        assert self.interp.call_function("Double", [200]) == 144  # 400 mod 256

    def test_gcd(self):
        assert self.interp.call_function("Gcd", [48, 36]) == 12
        assert self.interp.call_function("Gcd", [7, 13]) == 1

    def test_procedure_out_array(self):
        out = self.interp.call_procedure("Fill", [None, 9])
        assert out["A"] == [9, 9, 9, 9]

    def test_in_and_out_params(self):
        out = self.interp.call_procedure("SumAll", [[1, 2, 3, 4], None])
        assert out["Total"] == 10

    def test_nested_array_target_in_for_loop(self):
        # The target's type and each base's bounds come from the
        # interpreter's type cache, filled on the first iteration.
        typed = analyzed("""
package P is
   type Byte is mod 256;
   type Row is array (0 .. 3) of Byte;
   type Grid is array (0 .. 1) of Row;
   procedure Fill (G : out Grid; V : in Byte) is
   begin
      for I in 0 .. 1 loop
         for J in 0 .. 3 loop
            G (I) (J) := V + Byte (4 * I + J);
         end loop;
      end loop;
   end Fill;
end P;
""")
        out = Interpreter(typed).call_procedure("Fill", [None, 250])
        assert out["G"] == [[250, 251, 252, 253], [254, 255, 0, 1]]

    def test_uninitialized_read_faults(self):
        typed = analyzed("""
package P is
   procedure Q (Y : out Integer) is
      X : Integer;
   begin
      Y := X;
   end Q;
end P;
""")
        with pytest.raises(RuntimeFault, match="uninitialized"):
            Interpreter(typed).call_procedure("Q", [None])

    def test_index_out_of_bounds_faults(self):
        typed = analyzed("""
package P is
   type A4 is array (0 .. 3) of Integer;
   procedure Q (A : in A4; I : in Integer; Y : out Integer) is
   begin
      Y := A (I);
   end Q;
end P;
""")
        interp = Interpreter(typed)
        assert interp.call_procedure("Q", [[5, 6, 7, 8], 2, None])["Y"] == 7
        with pytest.raises(RuntimeFault, match="out of range"):
            interp.call_procedure("Q", [[5, 6, 7, 8], 4, None])

    def test_division_by_zero_faults(self):
        typed = analyzed("""
package P is
   procedure Q (A : in Integer; B : in Integer; Y : out Integer) is
   begin
      Y := A / B;
   end Q;
end P;
""")
        with pytest.raises(RuntimeFault, match="division"):
            Interpreter(typed).call_procedure("Q", [1, 0, None])

    def test_range_constraint_faults(self):
        typed = analyzed("""
package P is
   subtype Small is Integer range 0 .. 9;
   procedure Q (X : in Integer; Y : out Small) is
   begin
      Y := X;
   end Q;
end P;
""")
        interp = Interpreter(typed)
        assert interp.call_procedure("Q", [5, None])["Y"] == 5
        with pytest.raises(RuntimeFault, match="outside"):
            interp.call_procedure("Q", [10, None])

    def test_assert_checked(self):
        typed = analyzed("""
package P is
   procedure Q (X : in Integer; Y : out Integer) is
   begin
      --# assert X > 0;
      Y := X;
   end Q;
end P;
""")
        interp = Interpreter(typed)
        assert interp.call_procedure("Q", [1, None])["Y"] == 1
        with pytest.raises(RuntimeFault, match="assertion"):
            interp.call_procedure("Q", [0, None])

    def test_step_limit(self):
        typed = analyzed("""
package P is
   procedure Q (Y : out Integer) is
   begin
      Y := 0;
      while Y >= 0 loop
         Y := Y + 1;
      end loop;
   end Q;
end P;
""")
        with pytest.raises(StepLimitExceeded):
            Interpreter(typed, step_limit=10_000).call_procedure("Q", [None])

    def test_reverse_loop_order(self):
        typed = analyzed("""
package P is
   type A4 is array (0 .. 3) of Integer;
   procedure Q (A : out A4) is
      N : Integer;
   begin
      N := 0;
      for I in reverse 0 .. 3 loop
         A (I) := N;
         N := N + 1;
      end loop;
   end Q;
end P;
""")
        out = Interpreter(typed).call_procedure("Q", [None])
        assert out["A"] == [3, 2, 1, 0]

    def test_nested_arrays(self):
        typed = analyzed("""
package P is
   type Row is array (0 .. 1) of Integer;
   type Mat is array (0 .. 1) of Row;
   procedure Q (M : out Mat) is
   begin
      for I in 0 .. 1 loop
         for J in 0 .. 1 loop
            M (I) (J) := I * 10 + J;
         end loop;
      end loop;
   end Q;
end P;
""")
        out = Interpreter(typed).call_procedure("Q", [None])
        assert out["M"] == [[0, 1], [10, 11]]

    def test_constant_table_lookup(self):
        typed = analyzed("""
package P is
   type T is array (0 .. 3) of Integer;
   K : constant T := (10, 20, 30, 40);
   function F (I : in Integer) return Integer is
   begin
      return K (I);
   end F;
end P;
""")
        assert Interpreter(typed).call_function("F", [2]) == 30

    def test_shift_semantics(self):
        typed = analyzed("""
package P is
   type Word is mod 4294967296;
   function F (X : in Word) return Word is
   begin
      return Shift_Left (X, 24) or (Shift_Right (X, 8) and 255);
   end F;
end P;
""")
        interp = Interpreter(typed)
        assert interp.call_function("F", [0x12345678]) == \
            ((0x12345678 << 24) % 2**32) | ((0x12345678 >> 8) & 0xFF)

    def test_value_semantics_on_call(self):
        # Arrays are passed by value: callee writes must not alias caller 'in'.
        typed = analyzed("""
package P is
   type A2 is array (0 .. 1) of Integer;
   procedure Inner (X : in A2; Y : out A2) is
   begin
      Y (0) := X (0) + 1;
      Y (1) := X (1) + 1;
   end Inner;
   procedure Q (A : in A2; B : out A2) is
   begin
      Inner (A, B);
   end Q;
end P;
""")
        src = [5, 6]
        out = Interpreter(typed).call_procedure("Q", [src, None])
        assert out["B"] == [6, 7]
        assert src == [5, 6]
