"""Extraction and implication-proof tests on a miniature cipher."""

import pytest

from repro.extract import (
    build_map, extract_skeleton, extract_specification, match_ratio,
)
from repro.implication import prove_implication
from repro.lang import analyze, parse_package
from repro.spec import SpecEvaluator, parse_theory, print_theory

# A toy "cipher": substitute through a table, then rotate the block.
CODE = """
package Toy is

   type Byte is mod 256;
   type Block is array (0 .. 3) of Byte;
   type Table is array (0 .. 255) of Byte;

   Sub_Table : constant Table := (TABLE_ENTRIES);

   function Sub_Byte (B : in Byte) return Byte is
   begin
      return Sub_Table (Integer (B));
   end Sub_Byte;

   function Sub_Block (S : in Block) return Block is
      R : Block;
   begin
      for I in 0 .. 3 loop
         R (I) := Sub_Byte (S (I));
      end loop;
      return R;
   end Sub_Block;

   function Rotate (S : in Block) return Block is
      R : Block;
   begin
      for I in 0 .. 3 loop
         R (I) := S ((I + 1) mod 4);
      end loop;
      return R;
   end Rotate;

   procedure Encrypt (Input : in Block; Output : out Block) is
      T : Block;
   begin
      T := Input;
      T := Sub_Block (T);
      Output := Rotate (T);
   end Encrypt;

end Toy;
""".replace("TABLE_ENTRIES",
            ", ".join(str((i * 7 + 3) % 256) for i in range(256)))

SPEC = """
THEORY Toy
  TYPE Byte = NAT UPTO 255
  TYPE Block = ARRAY 4 OF Byte
  CONST SubTable : ARRAY 256 OF Byte = [TABLE_ENTRIES]
  FUN SubByte (B : Byte) : Byte = SubTable[B]
  FUN SubBlock (S : Block) : Block = BUILD I : 4 . SubByte(S[I])
  FUN Rotate (S : Block) : Block = BUILD I : 4 . S[(I + 1) MOD 4]
  FUN Encrypt (Input : Block) : Block = Rotate(SubBlock(Input))
END Toy
""".replace("TABLE_ENTRIES",
            ", ".join(str((i * 7 + 3) % 256) for i in range(256)))


@pytest.fixture(scope="module")
def typed():
    return analyze(parse_package(CODE))


@pytest.fixture(scope="module")
def original():
    return parse_theory(SPEC)


class TestSkeleton:
    def test_skeleton_elements(self, typed):
        skeleton = extract_skeleton(typed)
        names = {d.name for d in skeleton.decls}
        assert {"Byte", "Block", "Sub_Table", "Sub_Byte", "Sub_Block",
                "Rotate", "Encrypt"} <= names

    def test_procedure_gets_functional_reading(self, typed):
        skeleton = extract_skeleton(typed)
        encrypt = skeleton.decl("Encrypt")
        assert len(encrypt.params) == 1
        assert encrypt.params[0][0] == "Input"


class TestMatchRatio:
    def test_ratio_high_for_aligned_code(self, typed, original):
        skeleton = extract_skeleton(typed)
        ratio = match_ratio(original, skeleton)
        # Everything matches modulo underscore/case normalization.
        assert ratio.ratio == 1.0

    def test_ratio_drops_for_optimized_names(self, original):
        optimized = analyze(parse_package("""
package Toy is
   type Byte is mod 256;
   type Block is array (0 .. 3) of Byte;
   procedure Scramble (X : in Block; Y : out Block) is
   begin
      Y (0) := X (1);
      Y (1) := X (2);
      Y (2) := X (3);
      Y (3) := X (0);
   end Scramble;
end Toy;
"""))
        skeleton = extract_skeleton(optimized)
        ratio = match_ratio(original, skeleton)
        assert ratio.ratio < 0.5


class TestExtraction:
    def test_extracted_functions(self, typed):
        result = extract_specification(typed)
        names = {d.name for d in result.theory.functions()}
        assert names == {"Sub_Byte", "Sub_Block", "Rotate", "Encrypt"}
        assert not result.skipped

    def test_extracted_spec_is_executable(self, typed):
        result = extract_specification(typed)
        ev = SpecEvaluator(result.theory)
        block = (1, 2, 3, 4)
        expected_subbed = tuple((b * 7 + 3) % 256 for b in block)
        expected = tuple(expected_subbed[(i + 1) % 4] for i in range(4))
        assert ev.call("Encrypt", [block]) == expected

    def test_extracted_spec_matches_interpreter(self, typed):
        from repro.lang import Interpreter
        result = extract_specification(typed)
        ev = SpecEvaluator(result.theory)
        interp = Interpreter(typed)
        block = [9, 100, 200, 255]
        out = interp.call_procedure("Encrypt", [block, None])["Output"]
        assert tuple(out) == ev.call("Encrypt", [tuple(block)])

    def test_extracted_spec_prints(self, typed):
        result = extract_specification(typed)
        text = print_theory(result.theory)
        assert "FUN Encrypt" in text


class TestImplication:
    def test_implication_holds(self, typed, original):
        extracted = extract_specification(typed).theory
        result = prove_implication(original, extracted)
        assert result.holds, [(lemma.name, e.detail)
                              for lemma, e in result.failed]
        assert result.lemma_count == 5  # 1 table + 4 functions

    def test_leaf_lemma_exhaustive_and_composites(self, typed, original):
        extracted = extract_specification(typed).theory
        result = prove_implication(original, extracted)
        by_name = {lemma.name: e for lemma, e, _ in result.outcomes}
        assert by_name["SubTable_table_eq"].level == "table"
        assert by_name["SubByte_eq"].level in ("symbolic", "exhaustive")
        # Block-domain lemmas are too big to enumerate: symbolic or sampled.
        assert by_name["Encrypt_eq"].holds

    def test_tccs_reported(self, typed, original):
        extracted = extract_specification(typed).theory
        result = prove_implication(original, extracted)
        assert result.tcc_total > 0
        assert result.tcc_unproved == 0
        assert result.tcc_subsumed > 0  # many Byte-typed signatures repeat

    def test_defective_code_fails_implication(self, original):
        bad_code = CODE.replace("R (I) := S ((I + 1) mod 4);",
                                "R (I) := S ((I + 2) mod 4);")
        typed_bad = analyze(parse_package(bad_code))
        extracted = extract_specification(typed_bad).theory
        result = prove_implication(original, extracted)
        assert not result.holds
        failed_names = {lemma.name for lemma, _ in result.failed}
        assert "Rotate_eq" in failed_names or "Encrypt_eq" in failed_names
