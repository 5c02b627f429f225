"""The optimized AES implementation in MiniAda.

A faithful re-creation of the structure of Rijmen et al.'s
``rijndael-alg-fst.c`` (the artifact the paper verified): packed 32-bit
words, Te/Td T-tables combining SubBytes with MixColumns, fully unrolled
round bodies, per-key-size key-expansion branches, Te4/Td4 for final
rounds and key schedule, and the *equivalent inverse cipher* with the
InvMixColumns-adjusted decryption key schedule.

The source is generated (tables computed by :mod:`repro.aes.gf`), parsed
by the MiniAda front end, and validated against the FIPS-197 vectors.
One deliberate deviation from fst.c, documented in DESIGN.md: round
temporaries are copied back to the state variables each round instead of
alternating t/s names, so the unrolled rounds are textually affine in the
round number -- which is what makes the re-rolling transformation
*mechanically* applicable, exactly as the paper's block 1 requires.
"""

from __future__ import annotations

from functools import lru_cache

from ..lang import Interpreter, TypedPackage, analyze, parse_package
from . import gf
from .vectors import FIPS197_VECTORS

__all__ = ["optimized_source", "optimized_package", "run_cipher",
           "run_inv_cipher", "validate_optimized", "TYPE_DECLS",
           "word_table", "rcon_decl"]

TYPE_DECLS = """   type Byte is mod 256;
   type Word is mod 4294967296;
   subtype Key_Length is Integer range 4 .. 8;
   subtype Round_Count is Integer range 10 .. 14;
   type Byte_Block is array (0 .. 15) of Byte;
   type Key_Bytes is array (0 .. 31) of Byte;
   type Word_Key is array (0 .. 59) of Word;
   type Word_Table is array (0 .. 255) of Word;
   type Rcon_Table is array (0 .. 9) of Word;
"""


def word_table(name: str, values) -> str:
    entries = ", ".join(f"16#{v:08X}#" for v in values)
    return f"   {name} : constant Word_Table := ({entries});\n"


def rcon_decl() -> str:
    entries = ", ".join(f"16#{v:08X}#" for v in gf.rcon_words())
    return f"   Rcon : constant Rcon_Table := ({entries});\n"


def _pack_word(dest: str, source: str, base) -> str:
    """dest := bytes source[base..base+3] packed big-endian."""
    def idx(k):
        return f"{base} + {k}" if isinstance(base, str) else str(base + k)
    return (f"      {dest} := Shift_Left (Word ({source} ({idx(0)})), 24) or "
            f"Shift_Left (Word ({source} ({idx(1)})), 16) or "
            f"Shift_Left (Word ({source} ({idx(2)})), 8) or "
            f"Word ({source} ({idx(3)}));\n")


def _round_lookup(tables: str, col: int, decrypt: bool) -> str:
    """The four-table xor for one output word of a round.

    Encryption: t_c combines rows 0..3 of s_c, s_{c+1}, s_{c+2}, s_{c+3};
    decryption mirrors with s_{c-1}, s_{c-2}, s_{c-3} (mod 4)."""
    def src(row):
        if decrypt:
            return f"S{(col - row) % 4}"
        return f"S{(col + row) % 4}"
    return (f"{tables}0 (Integer (Shift_Right ({src(0)}, 24))) xor "
            f"{tables}1 (Integer (Shift_Right ({src(1)}, 16) and 255)) xor "
            f"{tables}2 (Integer (Shift_Right ({src(2)}, 8) and 255)) xor "
            f"{tables}3 (Integer ({src(3)} and 255))")


def _full_round(rk_base, tables: str, decrypt: bool) -> str:
    out = []
    for c in range(4):
        rk_index = f"{rk_base} + {c}" if isinstance(rk_base, str) \
            else str(rk_base + c)
        out.append(f"      T{c} := {_round_lookup(tables, c, decrypt)} "
                   f"xor RK ({rk_index});\n")
    for c in range(4):
        out.append(f"      S{c} := T{c};\n")
    return "".join(out)


def _final_round(tables4: str, decrypt: bool) -> str:
    masks = ["16#FF000000#", "16#00FF0000#", "16#0000FF00#", "16#000000FF#"]
    shifts = [("Shift_Right ({s}, 24)", None),
              ("Shift_Right ({s}, 16) and 255", None),
              ("Shift_Right ({s}, 8) and 255", None),
              ("{s} and 255", None)]
    out = []
    for c in range(4):
        parts = []
        for row in range(4):
            if decrypt:
                source = f"S{(c - row) % 4}"
            else:
                source = f"S{(c + row) % 4}"
            extract = shifts[row][0].format(s=source)
            parts.append(f"({tables4} (Integer ({extract})) and {masks[row]})")
        joined = " or ".join(parts)
        out.append(f"      T{c} := ({joined}) xor RK (4 * Nr + {c});\n")
    for c in range(4):
        base = 4 * c
        out.append(f"      Output ({base}) := Byte (Shift_Right (T{c}, 24));\n")
        out.append(f"      Output ({base + 1}) := "
                   f"Byte (Shift_Right (T{c}, 16) and 255);\n")
        out.append(f"      Output ({base + 2}) := "
                   f"Byte (Shift_Right (T{c}, 8) and 255);\n")
        out.append(f"      Output ({base + 3}) := Byte (T{c} and 255);\n")
    return "".join(out)


def _subword_mix(temp: str, rotated: bool) -> str:
    """Te4-based SubWord as used by the fst.c key schedule.

    ``rotated`` selects the RotWord+SubWord byte arrangement (used on the
    Nk-boundary words); otherwise plain SubWord (the Nk=8 middle case)."""
    if rotated:
        rows = [f"(Te4 (Integer (Shift_Right ({temp}, 16) and 255)) "
                f"and 16#FF000000#)",
                f"(Te4 (Integer (Shift_Right ({temp}, 8) and 255)) "
                f"and 16#00FF0000#)",
                f"(Te4 (Integer ({temp} and 255)) and 16#0000FF00#)",
                f"(Te4 (Integer (Shift_Right ({temp}, 24))) and 16#000000FF#)"]
    else:
        rows = [f"(Te4 (Integer (Shift_Right ({temp}, 24))) "
                f"and 16#FF000000#)",
                f"(Te4 (Integer (Shift_Right ({temp}, 16) and 255)) "
                f"and 16#00FF0000#)",
                f"(Te4 (Integer (Shift_Right ({temp}, 8) and 255)) "
                f"and 16#0000FF00#)",
                f"(Te4 (Integer ({temp} and 255)) and 16#000000FF#)"]
    return " xor ".join(rows)


def _expand_128() -> str:
    out = ["      Nr := 10;\n"]
    for i in range(10):
        base = 4 * i
        out.append(f"      T := RK ({base + 3});\n")
        out.append(f"      RK ({base + 4}) := RK ({base}) xor "
                   f"{_subword_mix('T', rotated=True)} xor Rcon ({i});\n")
        out.append(f"      RK ({base + 5}) := RK ({base + 4}) "
                   f"xor RK ({base + 1});\n")
        out.append(f"      RK ({base + 6}) := RK ({base + 5}) "
                   f"xor RK ({base + 2});\n")
        out.append(f"      RK ({base + 7}) := RK ({base + 6}) "
                   f"xor RK ({base + 3});\n")
    return "".join(out)


def _expand_192() -> str:
    out = ["      Nr := 12;\n"]
    for i in range(8):
        base = 6 * i
        out.append(f"      T := RK ({base + 5});\n")
        out.append(f"      RK ({base + 6}) := RK ({base}) xor "
                   f"{_subword_mix('T', rotated=True)} xor Rcon ({i});\n")
        for k in range(1, 6):
            if base + 6 + k > 53:
                break
            out.append(f"      RK ({base + 6 + k}) := RK ({base + 5 + k}) "
                       f"xor RK ({base + k});\n")
    return "".join(out)


def _expand_256() -> str:
    out = ["      Nr := 14;\n"]
    for i in range(7):
        base = 8 * i
        out.append(f"      T := RK ({base + 7});\n")
        out.append(f"      RK ({base + 8}) := RK ({base}) xor "
                   f"{_subword_mix('T', rotated=True)} xor Rcon ({i});\n")
        for k in range(1, 4):
            out.append(f"      RK ({base + 8 + k}) := RK ({base + 7 + k}) "
                       f"xor RK ({base + k});\n")
        if i == 6:
            break  # rk[60..] does not exist; 256-bit schedule ends at 59
        out.append(f"      T := RK ({base + 11});\n")
        out.append(f"      RK ({base + 12}) := RK ({base + 4}) xor "
                   f"{_subword_mix('T', rotated=False)};\n")
        for k in range(1, 4):
            out.append(f"      RK ({base + 12 + k}) := RK ({base + 11 + k}) "
                       f"xor RK ({base + 4 + k});\n")
    return "".join(out)


@lru_cache(maxsize=None)
def optimized_source() -> str:
    te = gf.te_tables()
    td = gf.td_tables()
    tables = "".join([
        word_table("Te0", te[0]), word_table("Te1", te[1]),
        word_table("Te2", te[2]), word_table("Te3", te[3]),
        word_table("Te4", gf.te4()),
        word_table("Td0", td[0]), word_table("Td1", td[1]),
        word_table("Td2", td[2]), word_table("Td3", td[3]),
        word_table("Td4", gf.td4()),
        rcon_decl(),
    ])

    # Encryption rounds: 9 unconditional, then Nr-dependent extras.
    enc_rounds = "".join(_full_round(4 * r, "Te", decrypt=False)
                         for r in range(1, 10))
    enc_extra_12 = "".join(_full_round(4 * r, "Te", decrypt=False)
                           for r in (10, 11))
    enc_extra_14 = "".join(_full_round(4 * r, "Te", decrypt=False)
                           for r in (12, 13))
    dec_rounds = "".join(_full_round(4 * r, "Td", decrypt=True)
                         for r in range(1, 10))
    dec_extra_12 = "".join(_full_round(4 * r, "Td", decrypt=True)
                           for r in (10, 11))
    dec_extra_14 = "".join(_full_round(4 * r, "Td", decrypt=True)
                           for r in (12, 13))

    pack_state = "".join(
        _pack_word(f"S{c}", "Input", 4 * c) for c in range(4))
    xor_initial = "".join(
        f"      S{c} := S{c} xor RK ({c});\n" for c in range(4))

    return f"""package AES_Impl is

{TYPE_DECLS}
{tables}
   procedure Expand_Key (Key : in Key_Bytes; Nk : in Key_Length;
                         RK : out Word_Key; Nr : out Round_Count) is
      T : Word;
   begin
      for I in 0 .. Nk - 1 loop
         RK (I) := Shift_Left (Word (Key (4 * I)), 24) or
                   Shift_Left (Word (Key (4 * I + 1)), 16) or
                   Shift_Left (Word (Key (4 * I + 2)), 8) or
                   Word (Key (4 * I + 3));
      end loop;
      if Nk = 4 then
{_expand_128()}      elsif Nk = 6 then
{_expand_192()}      else
{_expand_256()}      end if;
   end Expand_Key;

   procedure Expand_Dec_Key (Key : in Key_Bytes; Nk : in Key_Length;
                             RK : out Word_Key; Nr : out Round_Count) is
      A : Word;
      B : Word;
   begin
      Expand_Key (Key, Nk, RK, Nr);
      for C in 0 .. 3 loop
         for I in 0 .. 6 loop
            if I < Nr - I then
               A := RK (4 * I + C);
               B := RK (4 * (Nr - I) + C);
               RK (4 * I + C) := B;
               RK (4 * (Nr - I) + C) := A;
            end if;
         end loop;
      end loop;
      for I in 4 .. 4 * Nr - 1 loop
         A := RK (I);
         RK (I) := Td0 (Integer (Te4 (Integer (Shift_Right (A, 24))) and 255)) xor
                   Td1 (Integer (Te4 (Integer (Shift_Right (A, 16) and 255)) and 255)) xor
                   Td2 (Integer (Te4 (Integer (Shift_Right (A, 8) and 255)) and 255)) xor
                   Td3 (Integer (Te4 (Integer (A and 255)) and 255));
      end loop;
   end Expand_Dec_Key;

   procedure Encrypt (RK : in Word_Key; Nr : in Round_Count;
                      Input : in Byte_Block; Output : out Byte_Block) is
      S0 : Word;
      S1 : Word;
      S2 : Word;
      S3 : Word;
      T0 : Word;
      T1 : Word;
      T2 : Word;
      T3 : Word;
   begin
{pack_state}{xor_initial}{enc_rounds}      if Nr > 10 then
{enc_extra_12}      end if;
      if Nr > 12 then
{enc_extra_14}      end if;
{_final_round("Te4", decrypt=False)}   end Encrypt;

   procedure Decrypt (RK : in Word_Key; Nr : in Round_Count;
                      Input : in Byte_Block; Output : out Byte_Block) is
      S0 : Word;
      S1 : Word;
      S2 : Word;
      S3 : Word;
      T0 : Word;
      T1 : Word;
      T2 : Word;
      T3 : Word;
   begin
{pack_state}{xor_initial}{dec_rounds}      if Nr > 10 then
{dec_extra_12}      end if;
      if Nr > 12 then
{dec_extra_14}      end if;
{_final_round("Td4", decrypt=True)}   end Decrypt;

   procedure Cipher (Key : in Key_Bytes; Nk : in Key_Length;
                     Input : in Byte_Block; Output : out Byte_Block) is
      RK : Word_Key;
      Nr : Round_Count;
   begin
      Expand_Key (Key, Nk, RK, Nr);
      Encrypt (RK, Nr, Input, Output);
   end Cipher;

   procedure Inv_Cipher (Key : in Key_Bytes; Nk : in Key_Length;
                         Input : in Byte_Block; Output : out Byte_Block) is
      RK : Word_Key;
      Nr : Round_Count;
   begin
      Expand_Dec_Key (Key, Nk, RK, Nr);
      Decrypt (RK, Nr, Input, Output);
   end Inv_Cipher;

end AES_Impl;
"""


@lru_cache(maxsize=None)
def optimized_package() -> TypedPackage:
    return analyze(parse_package(optimized_source()))


def run_cipher(typed: TypedPackage, key, nk: int, block,
               decrypt: bool = False):
    interp = Interpreter(typed)
    padded = list(key) + [0] * (32 - len(key))
    name = "Inv_Cipher" if decrypt else "Cipher"
    out = interp.call_procedure(name, [padded, nk, list(block), None])
    return tuple(out["Output"])


def run_inv_cipher(typed: TypedPackage, key, nk: int, block):
    return run_cipher(typed, key, nk, block, decrypt=True)


def validate_optimized(typed: TypedPackage = None) -> bool:
    """Check the implementation against every FIPS-197 appendix C vector,
    both directions."""
    typed = typed or optimized_package()
    for vector in FIPS197_VECTORS:
        got = run_cipher(typed, vector.key, vector.nk, vector.plaintext)
        if got != vector.ciphertext:
            raise AssertionError(f"{vector.name}: encrypt mismatch {got}")
        back = run_inv_cipher(typed, vector.key, vector.nk,
                              vector.ciphertext)
        if back != vector.plaintext:
            raise AssertionError(f"{vector.name}: decrypt mismatch {back}")
    return True
