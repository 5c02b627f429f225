"""Additional equiv coverage: the transition-semantics model and
refutation edge cases."""

import random

import pytest

from repro.equiv import (
    TransitionSemantics, differential_check, final_state, prove_equivalence,
    random_state, state_key,
)
from repro.lang import analyze, parse_package


def analyzed(src):
    return analyze(parse_package(src))


PKG = analyzed("""
package P is
   type Byte is mod 256;
   type Pair is array (0 .. 1) of Byte;
   procedure Swap (A : in out Pair) is
      T : Byte;
   begin
      T := A (0);
      A (0) := A (1);
      A (1) := T;
   end Swap;
   function Plus (X : in Byte; Y : in Byte) return Byte is
   begin
      return X + Y;
   end Plus;
end P;
""")


class TestModel:
    def test_transition_semantics_of(self):
        ts = TransitionSemantics.of(PKG.signatures["Swap"])
        assert ts.init_vars == ("A",)
        assert ts.final_vars == ("A",)
        tf = TransitionSemantics.of(PKG.signatures["Plus"])
        assert tf.final_vars == ("Result",)

    def test_final_state_inout(self):
        out = final_state(PKG, "Swap", {"A": [3, 9]})
        assert out["A"] == [9, 3]

    def test_state_key_freezes_arrays(self):
        assert state_key({"A": [1, 2]}) == state_key({"A": [1, 2]})
        assert state_key({"A": [1, 2]}) != state_key({"A": [2, 1]})

    def test_random_state_respects_types(self):
        rng = random.Random(3)
        state = random_state(PKG, PKG.signatures["Plus"], rng)
        assert set(state) == {"X", "Y"}
        assert all(0 <= v <= 255 for v in state.values())


class TestEquivalenceEdges:
    def test_inout_procedure_equivalence(self):
        other = analyzed("""
package P is
   type Byte is mod 256;
   type Pair is array (0 .. 1) of Byte;
   procedure Swap (A : in out Pair) is
   begin
      A (0) := A (0) xor A (1);
      A (1) := A (0) xor A (1);
      A (0) := A (0) xor A (1);
   end Swap;
end P;
""")
        theorem = prove_equivalence(PKG, "Swap", other, "Swap")
        assert theorem.holds

    def test_signature_mismatch_rejected(self):
        with pytest.raises(ValueError, match="signatures differ"):
            differential_check(PKG, "Swap", PKG, "Plus")

    def test_sampler_override(self):
        # With a sampler the check is relative to the sampled domain.
        bad = analyzed("""
package P is
   type Byte is mod 256;
   function Plus (X : in Byte; Y : in Byte) return Byte is
   begin
      if X = 255 then
         return 0;
      end if;
      return X + Y;
   end Plus;
end P;
""")
        sampler = lambda rng: {"X": rng.randrange(0, 200),
                               "Y": rng.randrange(256)}
        result = differential_check(PKG, "Plus", bad, "Plus", trials=32,
                                    sampler=sampler)
        assert result.holds  # the defect lives outside the domain
        full = prove_equivalence(PKG, "Plus", bad, "Plus")
        assert not full.holds  # but not outside the full domain
