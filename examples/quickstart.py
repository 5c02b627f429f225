"""Quickstart: the full Echo process on a small program.

A deliberately "optimized" checksum routine (unrolled loop, magic masking)
is refactored mechanically, annotated, proved against its annotations, and
its extracted specification is proved to imply the original specification.

Run:  python examples/quickstart.py
"""

from repro.core import EchoVerifier
from repro.lang import parse_package
from repro.refactor import ExtractFunction, RerollLoop
from repro.spec import parse_theory

# The program as a developer wrote it: unrolled for speed, an inlined
# "fold" expression cloned four times.
OPTIMIZED = """
package Checksum is

   type Byte is mod 256;
   type Block is array (0 .. 3) of Byte;

   procedure Sum (Data : in Block; Result : out Byte) is
      Acc : Byte;
   begin
      Acc := 0;
      Acc := (Acc + Data (0)) xor 170;
      Acc := (Acc + Data (1)) xor 170;
      Acc := (Acc + Data (2)) xor 170;
      Acc := (Acc + Data (3)) xor 170;
      Result := Acc;
   end Sum;

end Checksum;
"""

# The original (high-level) specification the program was built from.
SPECIFICATION = """
THEORY Checksum
  TYPE Byte = NAT UPTO 255
  TYPE Block = ARRAY 4 OF Byte
  FUN Fold (Acc : Byte, B : Byte) : Byte = XOR((Acc + B) MOD 256, 170)
  REC FUN SumUpto (Data : Block, N : NAT UPTO 4) : Byte MEASURE N =
      IF N = 0 THEN 0 ELSE Fold(SumUpto(Data, N - 1), Data[N - 1]) ENDIF
  FUN Sum (Data : Block) : Byte = SumUpto(Data, 4)
END Checksum
"""


def main():
    verifier = EchoVerifier(
        parse_package(OPTIMIZED),
        parse_theory(SPECIFICATION),
        observables=["Sum"],
    )

    # Verification refactoring: re-roll the unrolled loop, then reverse the
    # inlined fold expression.  Each application is checked by a
    # semantics-preservation theorem (symbolic here: watch the evidence).
    applications = verifier.refactor([
        RerollLoop(subprogram="Sum", start=1, group_size=1, count=4,
                   var="I"),
        ExtractFunction(function_source="""
   function Fold (Acc : in Byte; B : in Byte) return Byte is
   begin
      return (Acc + B) xor 170;
   end Fold;
""", minimum_occurrences=1),
    ])
    for app in applications:
        for name, theorem in app.theorems.items():
            verdict = "refuted" if not theorem.holds else \
                "proved" if theorem.is_proof else "holds"
            print(f"  {app.transformation:18s} preservation: {verdict} "
                  f"({theorem.level}, {name})")

    print()
    print("refactored program:")
    from repro.lang import print_package
    print(print_package(verifier.engine.package))

    result = verifier.verify()
    print(result.summary())
    assert result.implication.holds


if __name__ == "__main__":
    main()
