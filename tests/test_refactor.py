"""Tests for the refactoring engine and transformation library."""

import pytest

from repro.lang import analyze, parse_package, print_package
from repro.lang import ast
from repro.refactor import (
    ExtractFunction, ExtractProcedureClone, IntroduceIntermediateVariable,
    MergeLoopNest, MoveIntoConditional, MoveOutOfConditional,
    RefactoringEngine, RemoveDeadSubprogram, RemoveIntermediateVariable,
    Rename, RerollLoop, ReverseTableLookup, SeparateLoop, ShiftLoopBounds,
    SplitLoopNest, SplitProcedure, TransformationError,
    UserSpecifiedTransformation,
)

UNROLLED = """
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
"""


def engine_for(src, observables, check="full"):
    return RefactoringEngine(parse_package(src), observables, check=check)


class TestRerollLoop:
    def test_reroll_four_groups(self):
        engine = engine_for(UNROLLED, ["Q"])
        application = engine.apply(
            RerollLoop(subprogram="Q", start=0, group_size=1, count=4))
        assert application.preserved
        body = engine.package.subprogram("Q").body
        assert len(body) == 1
        assert isinstance(body[0], ast.For)
        assert application.theorems["Q"].level == "symbolic"

    def test_reroll_rejects_broken_pattern(self):
        broken = UNROLLED.replace("B (2) := A (2) xor 255;",
                                  "B (2) := A (2) xor 254;")
        engine = engine_for(broken, ["Q"])
        with pytest.raises(TransformationError, match="affine|differ"):
            engine.apply(RerollLoop(subprogram="Q", start=0,
                                    group_size=1, count=4))

    def test_reroll_rejects_defective_order(self):
        # Same statements, but one uses a different *variable*: not affine.
        broken = UNROLLED.replace("B (1) := A (1) xor 255;",
                                  "B (1) := B (0) xor 255;")
        engine = engine_for(broken, ["Q"])
        with pytest.raises(TransformationError):
            engine.apply(RerollLoop(subprogram="Q", start=0,
                                    group_size=1, count=4))

    def test_reroll_affine_stride(self):
        src = """
package P is
   type Byte is mod 256;
   type Arr is array (0 .. 7) of Byte;
   procedure Q (A : in Arr; B : out Arr) is
   begin
      B (0) := A (1);
      B (2) := A (3);
      B (4) := A (5);
      B (6) := A (7);
      B (1) := 0;
      B (3) := 0;
      B (5) := 0;
      B (7) := 0;
   end Q;
end P;
"""
        engine = engine_for(src, ["Q"])
        engine.apply(RerollLoop(subprogram="Q", start=0, group_size=1,
                                count=4, var="I"))
        engine.apply(RerollLoop(subprogram="Q", start=1, group_size=1,
                                count=4, var="J"))
        body = engine.package.subprogram("Q").body
        assert all(isinstance(s, ast.For) for s in body)

    def test_undo_restores_previous_version(self):
        engine = engine_for(UNROLLED, ["Q"])
        before = print_package(engine.package)
        engine.apply(RerollLoop(subprogram="Q", start=0, group_size=1,
                                count=4))
        assert print_package(engine.package) != before
        engine.undo()
        assert print_package(engine.package) == before


class TestFreshVariableCapture:
    """Loop variables live outside the declared context, so "fresh" must
    mean more than ``ctx.var_type(v) is None``.  Regression tests for the
    planner-discovered defect where rerolling statements *inside* an
    existing ``for I`` loop introduced an inner loop also named I: the
    outer-loop occurrences in the rerolled statements were silently
    captured (``RK (6*I + ...)`` started indexing with the inner I),
    producing a type-correct but wrong program."""

    NESTED = """
package P is
   type Byte is mod 256;
   type Arr is array (0 .. 7) of Byte;
   procedure Q (A : in Arr; B : out Arr) is
   begin
      for I in 0 .. 1 loop
         B (4 * I + 0) := A (4 * I + 0) xor 255;
         B (4 * I + 1) := A (4 * I + 1) xor 255;
         B (4 * I + 2) := A (4 * I + 2) xor 255;
         B (4 * I + 3) := A (4 * I + 3) xor 255;
      end loop;
   end Q;
end P;
"""

    def test_reroll_rejects_enclosing_loop_variable(self):
        engine = engine_for(self.NESTED, ["Q"])
        with pytest.raises(TransformationError, match="capture"):
            engine.apply(RerollLoop(subprogram="Q", start=0, group_size=1,
                                    count=4, var="I", path=(0,)))

    def test_reroll_enumeration_avoids_shadowing(self):
        typed = analyze(parse_package(self.NESTED))
        inner_sites = [s for s in RerollLoop.enumerate_sites(typed)
                       if s.path == (0,)]
        assert inner_sites, "the unrolled run inside the loop is a site"
        assert all(s.var != "I" for s in inner_sites)
        # The non-shadowing variable must also yield a *correct* program:
        # the symbolic equivalence theorem accepts the nested reroll.
        engine = engine_for(self.NESTED, ["Q"])
        application = engine.apply(inner_sites[0])
        assert application.preserved
        outer = engine.package.subprogram("Q").body[0]
        assert isinstance(outer.body[0], ast.For)
        assert outer.body[0].var != outer.var

    def test_reroll_rejects_variable_used_in_statements(self):
        # Wrapping statements that *contain* a loop over I in a new outer
        # loop over I is the capture in the other direction.
        src = UNROLLED.replace(
            "      B (3) := A (3) xor 255;",
            "      B (3) := A (3) xor 255;\n"
            "      for I in 0 .. 3 loop\n"
            "         B (I) := B (I) xor 1;\n"
            "      end loop;")
        engine = engine_for(src, ["Q"])
        with pytest.raises(TransformationError, match="capture"):
            # group = [one assignment, the I-loop] repeated: inapplicable
            # anyway, but the capture check must fire first and the var
            # check must hold for any hand-built instance.
            engine.apply(RerollLoop(subprogram="Q", start=3, group_size=2,
                                    count=1, var="I"))

    def test_split_rejects_enclosing_and_equal_variables(self):
        src = """
package P is
   type Byte is mod 256;
   type Arr is array (0 .. 7) of Byte;
   procedure Q (A : in Arr; B : out Arr) is
   begin
      for I in 0 .. 1 loop
         for K in 0 .. 3 loop
            B (4 * I + K) := A (4 * I + K) xor 255;
         end loop;
      end loop;
   end Q;
end P;
"""
        engine = engine_for(src, ["Q"])
        with pytest.raises(TransformationError, match="capture"):
            engine.apply(SplitLoopNest(subprogram="Q", index=0, inner=2,
                                       outer_var="I", inner_var="J",
                                       path=(0,)))
        with pytest.raises(TransformationError, match="differ"):
            engine.apply(SplitLoopNest(subprogram="Q", index=0, inner=2,
                                       outer_var="J", inner_var="J",
                                       path=(0,)))

    def test_merge_rejects_enclosing_loop_variable(self):
        src = """
package P is
   type Byte is mod 256;
   type Arr is array (0 .. 7) of Byte;
   procedure Q (A : in Arr; B : out Arr) is
   begin
      for I in 0 .. 1 loop
         for J in 0 .. 1 loop
            for K in 0 .. 1 loop
               B (4 * I + 2 * J + K) := A (4 * I + 2 * J + K) xor 255;
            end loop;
         end loop;
      end loop;
   end Q;
end P;
"""
        engine = engine_for(src, ["Q"])
        with pytest.raises(TransformationError, match="capture"):
            engine.apply(MergeLoopNest(subprogram="Q", index=0, var="I",
                                       path=(0,)))
        typed = analyze(parse_package(src))
        inner = [s for s in MergeLoopNest.enumerate_sites(typed)
                 if s.path == (0,)]
        assert inner and all(s.var not in ("I", "J", "K") for s in inner)
        application = engine.apply(inner[0])
        assert application.preserved


class TestConditionals:
    SRC = """
package P is
   procedure Q (X : in Integer; F : in Boolean; Y : out Integer) is
      T : Integer;
   begin
      T := X + 1;
      if F then
         Y := T;
      else
         Y := 0;
      end if;
   end Q;
end P;
"""

    def test_move_into_conditional(self):
        engine = engine_for(self.SRC, ["Q"])
        application = engine.apply(
            MoveIntoConditional(subprogram="Q", index=0))
        assert application.preserved
        body = engine.package.subprogram("Q").body
        assert len(body) == 1
        first = body[0]
        assert isinstance(first, ast.If)
        assert isinstance(first.branches[0][1][0], ast.Assign)

    def test_move_into_rejects_interference(self):
        src = """
package P is
   procedure Q (X : in Integer; Y : out Integer) is
      F : Boolean;
   begin
      F := X > 0;
      if F then
         Y := 1;
      else
         Y := 0;
      end if;
   end Q;
end P;
"""
        engine = engine_for(src, ["Q"])
        with pytest.raises(TransformationError, match="condition reads"):
            engine.apply(MoveIntoConditional(subprogram="Q", index=0))

    def test_move_out_of_conditional_roundtrip(self):
        engine = engine_for(self.SRC, ["Q"])
        engine.apply(MoveIntoConditional(subprogram="Q", index=0))
        engine.apply(MoveOutOfConditional(subprogram="Q", index=0))
        body = engine.package.subprogram("Q").body
        assert isinstance(body[0], ast.Assign)
        assert isinstance(body[1], ast.If)


class TestSplitProcedure:
    SRC = """
package P is
   type Byte is mod 256;
   type Arr is array (0 .. 3) of Byte;
   procedure Q (A : in Arr; B : out Arr; Total : out Byte) is
      T : Byte;
   begin
      T := 0;
      for I in 0 .. 3 loop
         T := T + A (I);
      end loop;
      Total := T;
      for I in 0 .. 3 loop
         B (I) := A (I);
      end loop;
   end Q;
end P;
"""

    def test_split_extracts_procedure(self):
        engine = engine_for(self.SRC, ["Q"])
        application = engine.apply(SplitProcedure(
            subprogram="Q", start=0, end=3, new_name="Sum_All"))
        assert application.preserved
        pkg = engine.package
        assert {sp.name for sp in pkg.subprograms} == {"Q", "Sum_All"}
        q = pkg.subprogram("Q")
        assert isinstance(q.body[0], ast.ProcCall)
        new = pkg.subprogram("Sum_All")
        modes = {p.name: p.mode for p in new.params}
        assert modes["A"] == "in"
        assert modes["Total"] == "out"
        # T is dead after the region and local: moved into the new procedure.
        assert "T" in {d.name for d in new.decls}

    def test_split_rejects_region_with_return(self):
        src = """
package P is
   function F (X : in Integer) return Integer is
   begin
      return X;
   end F;
end P;
"""
        engine = engine_for(src, ["F"])
        with pytest.raises(TransformationError, match="return"):
            engine.apply(SplitProcedure(subprogram="F", start=0, end=1,
                                        new_name="G"))


class TestLoopForms:
    def test_shift_bounds(self):
        src = """
package P is
   type Arr is array (0 .. 3) of Integer;
   procedure Q (B : out Arr) is
   begin
      for I in 0 .. 3 loop
         B (I) := I;
      end loop;
   end Q;
end P;
"""
        engine = engine_for(src, ["Q"])
        application = engine.apply(ShiftLoopBounds(subprogram="Q", index=0,
                                                   delta=1))
        assert application.preserved
        loop = engine.package.subprogram("Q").body[0]
        assert loop.lo == ast.IntLit(value=1)
        assert loop.hi == ast.IntLit(value=4)

    def test_split_and_merge_nest(self):
        src = """
package P is
   type Arr is array (0 .. 15) of Integer;
   procedure Q (B : out Arr) is
   begin
      for K in 0 .. 15 loop
         B (K) := K * 2;
      end loop;
   end Q;
end P;
"""
        engine = engine_for(src, ["Q"])
        engine.apply(SplitLoopNest(subprogram="Q", index=0, inner=4))
        outer = engine.package.subprogram("Q").body[0]
        assert isinstance(outer, ast.For)
        assert isinstance(outer.body[0], ast.For)
        engine.apply(MergeLoopNest(subprogram="Q", index=0, var="K2"))
        merged = engine.package.subprogram("Q").body[0]
        assert merged.hi == ast.IntLit(value=15)


class TestExtractFunction:
    SRC = """
package P is
   type Byte is mod 256;
   procedure Q (A : in Byte; B : in Byte; X : out Byte; Y : out Byte) is
   begin
      X := (A xor 27) and 254;
      Y := (B xor 27) and 254;
   end Q;
end P;
"""

    def test_extract_function_replaces_clones(self):
        engine = engine_for(self.SRC, ["Q"])
        application = engine.apply(ExtractFunction(function_source="""
   function Scramble (V : in Byte) return Byte is
   begin
      return (V xor 27) and 254;
   end Scramble;
""", minimum_occurrences=2))
        assert application.preserved
        q = engine.package.subprogram("Q")
        calls = [n for n in ast.walk(q) if isinstance(n, ast.FuncCall)
                 and n.name == "Scramble"]
        assert len(calls) == 2

    def test_extract_function_requires_occurrences(self):
        engine = engine_for(self.SRC, ["Q"])
        with pytest.raises(TransformationError, match="matched 0"):
            engine.apply(ExtractFunction(function_source="""
   function Nope (V : in Byte) return Byte is
   begin
      return (V xor 99) and 254;
   end Nope;
"""))


class TestExtractProcedureClone:
    SRC = """
package P is
   type Byte is mod 256;
   type Arr is array (0 .. 3) of Byte;
   procedure Q (A : in Arr; B : out Arr; C : out Arr) is
   begin
      for I in 0 .. 3 loop
         B (I) := A (I) xor 9;
      end loop;
      for I in 0 .. 3 loop
         C (I) := A (I) xor 9;
      end loop;
   end Q;
end P;
"""

    def test_extract_clone_blocks(self):
        engine = engine_for(self.SRC, ["Q"])
        application = engine.apply(ExtractProcedureClone(procedure_source="""
   procedure Mask_All (Src : in Arr; Dst : out Arr) is
   begin
      for I in 0 .. 3 loop
         Dst (I) := Src (I) xor 9;
      end loop;
   end Mask_All;
""", minimum_occurrences=2))
        assert application.preserved
        q = engine.package.subprogram("Q")
        assert all(isinstance(s, ast.ProcCall) for s in q.body)


class TestSeparateLoop:
    def test_separate_independent_parts(self):
        src = """
package P is
   type Arr is array (0 .. 3) of Integer;
   procedure Q (A : in Arr; B : out Arr; C : out Arr) is
   begin
      for I in 0 .. 3 loop
         B (I) := A (I) + 1;
         C (I) := B (I) * 2;
      end loop;
   end Q;
end P;
"""
        engine = engine_for(src, ["Q"])
        application = engine.apply(SeparateLoop(subprogram="Q", index=0,
                                                split_at=1))
        assert application.preserved
        body = engine.package.subprogram("Q").body
        assert len(body) == 2

    def test_separate_rejects_backward_flow(self):
        src = """
package P is
   type Arr is array (0 .. 3) of Integer;
   procedure Q (A : in Arr; B : out Arr; S : out Integer) is
   begin
      S := 0;
      for I in 0 .. 3 loop
         B (I) := A (I) + S;
         S := S + 1;
      end loop;
   end Q;
end P;
"""
        engine = engine_for(src, ["Q"])
        with pytest.raises(TransformationError):
            engine.apply(SeparateLoop(subprogram="Q", index=1, split_at=1))


class TestStorage:
    def test_remove_intermediate(self):
        src = """
package P is
   procedure Q (X : in Integer; Y : out Integer) is
      T : Integer;
   begin
      T := X * 2;
      Y := T + 1;
   end Q;
end P;
"""
        engine = engine_for(src, ["Q"])
        application = engine.apply(RemoveIntermediateVariable(
            subprogram="Q", variable="T"))
        assert application.preserved
        q = engine.package.subprogram("Q")
        assert not q.decls
        assert len(q.body) == 1

    def test_remove_rejects_unstable_value(self):
        src = """
package P is
   procedure Q (X : in Integer; Y : out Integer) is
      T : Integer;
      U : Integer;
   begin
      U := X;
      T := U * 2;
      U := U + 1;
      Y := T + U;
   end Q;
end P;
"""
        engine = engine_for(src, ["Q"])
        with pytest.raises(TransformationError, match="stable"):
            engine.apply(RemoveIntermediateVariable(subprogram="Q",
                                                    variable="T"))

    def test_introduce_intermediate(self):
        src = """
package P is
   procedure Q (X : in Integer; Y : out Integer) is
   begin
      Y := (X + 1) * (X + 1);
   end Q;
end P;
"""
        engine = engine_for(src, ["Q"])
        application = engine.apply(IntroduceIntermediateVariable(
            subprogram="Q", variable="T", type_name="Integer",
            expression="X + 1", at_index=0))
        assert application.preserved
        q = engine.package.subprogram("Q")
        assert q.decls[0].name == "T"
        assert len(q.body) == 2

    def test_rename_subprogram(self):
        engine = engine_for(UNROLLED, ["Q"])
        engine.apply(Rename(kind="subprogram", old="Q", new="Invert"))
        assert engine.package.subprogram("Invert")

    def test_rename_type_everywhere(self):
        engine = engine_for(UNROLLED, ["Q"])
        engine.apply(Rename(kind="type", old="Arr", new="Block16"))
        text = print_package(engine.package)
        assert "Arr" not in text
        assert "Block16" in text


class TestRemoveDeadSubprogram:
    """A superseded original (no remaining callers) can be deleted; a
    subprogram anything still references -- or one on the observable
    interface of a full-interface engine -- cannot."""

    SRC = """
package P is
   type Byte is mod 256;
   function Double (X : Byte) return Byte is
   begin
      return X * 2;
   end Double;
   procedure Old_Q (A : in Byte; B : out Byte) is
   begin
      B := Double (A);
   end Old_Q;
   procedure Q (A : in Byte; B : out Byte) is
   begin
      B := A xor 255;
   end Q;
end P;
"""

    def test_remove_dead_subprogram(self):
        engine = engine_for(self.SRC, ["Q"])
        application = engine.apply(RemoveDeadSubprogram(subprogram="Old_Q"))
        assert application.preserved
        names = [sp.name for sp in engine.package.subprograms]
        assert names == ["Double", "Q"]
        # Removing Old_Q orphaned Double; it is now removable too.
        engine.apply(RemoveDeadSubprogram(subprogram="Double"))
        assert [sp.name for sp in engine.package.subprograms] == ["Q"]

    def test_rejects_referenced_subprogram(self):
        engine = engine_for(self.SRC, ["Q"])
        with pytest.raises(TransformationError, match="referenced by Old_Q"):
            engine.apply(RemoveDeadSubprogram(subprogram="Double"))

    def test_rejects_missing_subprogram(self):
        engine = engine_for(self.SRC, ["Q"])
        with pytest.raises(TransformationError, match="no subprogram"):
            engine.apply(RemoveDeadSubprogram(subprogram="Nope"))

    def test_enumerates_uncalled_in_package_order(self):
        typed = analyze(parse_package(self.SRC))
        sites = [s.subprogram
                 for s in RemoveDeadSubprogram.enumerate_sites(typed)]
        assert sites == ["Old_Q", "Q"]

    def test_full_interface_engine_protects_observables(self):
        engine = RefactoringEngine(parse_package(self.SRC), ["Q"],
                                   check="full", check_observables=True)
        with pytest.raises(TransformationError, match="observable"):
            engine.apply(RemoveDeadSubprogram(subprogram="Q"))
        # Non-observable dead code is still fair game on such an engine.
        assert engine.apply(
            RemoveDeadSubprogram(subprogram="Old_Q")).preserved


class TestReverseTableLookup:
    SRC = """
package P is
   type Byte is mod 256;
   type Table is array (0 .. 255) of Byte;
   Double : constant Table := (others => 0);
   procedure Q (X : in Byte; Y : out Byte) is
   begin
      Y := Double (Integer (X));
   end Q;
end P;
"""

    def make_src(self):
        entries = ", ".join(str((2 * i) % 256) for i in range(256))
        return self.SRC.replace("(others => 0)", f"({entries})")

    def test_reverse_lookup_with_correct_function(self):
        engine = engine_for(self.make_src(), ["Q"])
        application = engine.apply(ReverseTableLookup(
            table="Double",
            function_source="""
   function GF_Double (I : in Integer) return Byte is
      V : Byte;
   begin
      V := Byte (I mod 256);
      return V + V;
   end GF_Double;
"""))
        assert application.preserved
        text = print_package(engine.package)
        assert "Double : constant" not in text
        assert "GF_Double" in text

    def test_reverse_lookup_rejects_wrong_function(self):
        engine = engine_for(self.make_src(), ["Q"])
        with pytest.raises(TransformationError, match="does not compute"):
            engine.apply(ReverseTableLookup(
                table="Double",
                function_source="""
   function Bad (I : in Integer) return Byte is
   begin
      return Byte (I mod 256);
   end Bad;
"""))


class TestUserSpecified:
    def test_replace_subprogram_checked(self):
        engine = engine_for(UNROLLED, ["Q"])
        application = engine.apply(UserSpecifiedTransformation(
            description="rewrite Q with a loop",
            replace_subprograms="""
   procedure Q (A : in Arr; B : out Arr) is
   begin
      for I in 0 .. 3 loop
         B (I) := A (I) xor 255;
      end loop;
   end Q;
"""))
        assert application.preserved

    def test_wrong_replacement_refused(self):
        engine = engine_for(UNROLLED, ["Q"])
        with pytest.raises(TransformationError, match="NOT preserved"):
            engine.apply(UserSpecifiedTransformation(
                description="defective rewrite",
                replace_subprograms="""
   procedure Q (A : in Arr; B : out Arr) is
   begin
      for I in 0 .. 3 loop
         B (I) := A (I) xor 254;
      end loop;
   end Q;
"""))
        # The engine state is unchanged after a refused application.
        assert len(engine.history) == 0

    def test_missing_removals_strict_by_default(self):
        engine = engine_for(UNROLLED, ["Q"])
        with pytest.raises(TransformationError, match="not found"):
            engine.apply(UserSpecifiedTransformation(
                description="remove a subprogram that is already gone",
                remove_subprograms=("Old_Q",)))
        with pytest.raises(TransformationError, match="not found"):
            engine.apply(UserSpecifiedTransformation(
                description="remove a declaration that is already gone",
                remove_decls=("Word",)))

    def test_missing_removals_tolerated_on_request(self):
        # A planned chain may have tidied the named subprogram away
        # already; tolerate_missing skips it instead of stranding the
        # stage, and removals of names that *are* present still happen.
        engine = engine_for(UNROLLED, ["Q"])
        application = engine.apply(UserSpecifiedTransformation(
            description="rewrite Q; removals tolerant of prior tidying",
            remove_subprograms=("Old_Q",),
            remove_decls=("Word",),
            tolerate_missing=True,
            replace_subprograms="""
   procedure Q (A : in Arr; B : out Arr) is
   begin
      for I in 0 .. 3 loop
         B (I) := A (I) xor 255;
      end loop;
   end Q;
"""))
        assert application.preserved
