"""Annotations for the refactored AES (the paper's section 6.2.3).

After refactoring, "the code was examined and annotated manually"; this
module holds that manual annotation set: pre/postconditions, loop
invariants (``--# assert`` at loop heads) and proof functions/rules, and
attaches them to the refactored package.  Table 1's counts are computed
from the result by :func:`repro.lang.count_annotations`.

The proof functions ``Enc_<bits>``/``Inv_<bits>`` name the round-iteration
states so the cipher loops get inductive invariants -- the proof-rule
guards are written as disjunctions because SPARK-style annotations have no
implication operator.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from typing import Dict, Tuple

from ..lang import TypedPackage, analyze, parse_package, ast
from .refactored import refactored_source

__all__ = ["annotated_source_package", "annotated_package",
           "build_annotated"]


def _loop16(result: str, formula: str, upto: int = 15,
            bound: str = "Kb") -> Tuple[str, str]:
    """(invariant, post) pair for an element-wise building loop."""
    post = (f"for all {bound} in 0 .. {upto} => "
            f"({result} ({bound}) = ({formula}))")
    inv = (f"for all {bound} in 0 .. I - 1 => "
           f"(R ({bound}) = ({formula}))")
    return inv, post


_MIX_FORMULAS = [
    "GF_Mul2 (S (4 * Cc)) xor GF_Mul3 (S (4 * Cc + 1)) xor "
    "(S (4 * Cc + 2) xor S (4 * Cc + 3))",
    "S (4 * Cc) xor GF_Mul2 (S (4 * Cc + 1)) xor "
    "(GF_Mul3 (S (4 * Cc + 2)) xor S (4 * Cc + 3))",
    "S (4 * Cc) xor S (4 * Cc + 1) xor "
    "(GF_Mul2 (S (4 * Cc + 2)) xor GF_Mul3 (S (4 * Cc + 3)))",
    "GF_Mul3 (S (4 * Cc)) xor S (4 * Cc + 1) xor "
    "(S (4 * Cc + 2) xor GF_Mul2 (S (4 * Cc + 3)))",
]

_INV_MIX_FORMULAS = [
    "GF_Mul14 (S (4 * Cc)) xor GF_Mul11 (S (4 * Cc + 1)) xor "
    "(GF_Mul13 (S (4 * Cc + 2)) xor GF_Mul9 (S (4 * Cc + 3)))",
    "GF_Mul9 (S (4 * Cc)) xor GF_Mul14 (S (4 * Cc + 1)) xor "
    "(GF_Mul11 (S (4 * Cc + 2)) xor GF_Mul13 (S (4 * Cc + 3)))",
    "GF_Mul13 (S (4 * Cc)) xor GF_Mul9 (S (4 * Cc + 1)) xor "
    "(GF_Mul14 (S (4 * Cc + 2)) xor GF_Mul11 (S (4 * Cc + 3)))",
    "GF_Mul11 (S (4 * Cc)) xor GF_Mul13 (S (4 * Cc + 1)) xor "
    "(GF_Mul9 (S (4 * Cc + 2)) xor GF_Mul14 (S (4 * Cc + 3)))",
]


def _mix_annotations(formulas, offsets=("", " + 1", " + 2", " + 3")):
    invs = []
    posts = []
    for r, formula in enumerate(formulas):
        suffix = offsets[r]
        target = f"R (4 * Cc{suffix})"
        post_target = f"Result (4 * Cc{suffix})"
        invs.append(
            f"for all Cc in 0 .. C - 1 => ({target} = ({formula}))")
        posts.append(
            f"for all Cc in 0 .. 3 => ({post_target} = ({formula}))")
    return invs, posts


def _key_schedule_annotations(bits: int, nk: int, words: int):
    base = (f"for all Kw in 0 .. {nk - 1} => (for all Kb in 0 .. 3 => "
            f"(W (Kw) (Kb) = Key (4 * Kw + Kb)))")
    boundary = (f"((Kw mod {nk} = 0) and (W (Kw) = Xor_Words (W (Kw - {nk}), "
                f"Xor_Words (Sub_Word (Rot_Word (W (Kw - 1))), "
                f"Rcon_Word (Kw / {nk} - 1)))))")
    plain = (f"((Kw mod {nk} /= 0) and "
             f"(W (Kw) = Xor_Words (W (Kw - {nk}), W (Kw - 1))))")
    if nk == 8:
        middle = ("((Kw mod 8 = 4) and "
                  "(W (Kw) = Xor_Words (W (Kw - 8), Sub_Word (W (Kw - 1)))))")
        plain = (f"(((Kw mod {nk} /= 0) and (Kw mod 8 /= 4)) and "
                 f"(W (Kw) = Xor_Words (W (Kw - {nk}), W (Kw - 1))))")
        step_body = f"{boundary} or ({middle} or {plain})"
    else:
        step_body = f"{boundary} or {plain}"
    step = f"for all Kw in {nk} .. I - 1 => ({step_body})"
    step_post = f"for all Kw in {nk} .. {words - 1} => ({step_body})"
    return {
        "post": [base, step_post],
        "asserts": {
            # init loop: outer invariant; inner invariant restates it plus
            # the partially built word.
            ("loop", 0): [base.replace(f"0 .. {nk - 1}", "0 .. I - 1")],
            ("loop", 0, 0): [
                base.replace(f"0 .. {nk - 1}", "0 .. I - 1"),
                "for all Kb in 0 .. J - 1 => (W (I) (Kb) = Key (4 * I + Kb))",
            ],
            ("loop", 1): [base, step],
        },
    }


def _cipher_annotations(bits: int, rounds: int):
    enc = f"Enc_{bits}"
    inv = f"Inv_{bits}"
    rk = f"Round_Key_{bits}"
    return {
        f"AES{bits}": {
            "post": [f"Result = Final_Round ({enc} (Key, Input, "
                     f"{rounds - 1}), {rk} (Key, {rounds}))"],
            "asserts": {("loop", 1): [f"S = {enc} (Key, Input, R - 1)"]},
        },
        f"Inv_AES{bits}": {
            "post": [f"Result = Inv_Final_Round ({inv} (Key, Input, 1), "
                     f"{rk} (Key, 0))"],
            "asserts": {("loop", 1): [f"S = {inv} (Key, Input, R + 1)"]},
        },
    }


def _proof_decls() -> str:
    out = []
    for bits, nk, rounds in ((128, 4, 10), (192, 6, 12), (256, 8, 14)):
        key_type = f"Key{nk * 4}"
        rk = f"Round_Key_{bits}"
        out.append(f"""   --# function Enc_{bits} (Key : in {key_type}; Input : in State; R : in Integer) return State;
   --# function Inv_{bits} (Key : in {key_type}; Input : in State; R : in Integer) return State;
   --# rule Enc_{bits}_Base (Key : in {key_type}; Input : in State): Enc_{bits} (Key, Input, 0) = Add_Round_Key (Input, {rk} (Key, 0));
   --# rule Enc_{bits}_Step (Key : in {key_type}; Input : in State; R : in Integer): (R <= 0) or (Enc_{bits} (Key, Input, R) = Round (Enc_{bits} (Key, Input, R - 1), {rk} (Key, R)));
   --# rule Inv_{bits}_Base (Key : in {key_type}; Input : in State): Inv_{bits} (Key, Input, {rounds}) = Add_Round_Key (Input, {rk} (Key, {rounds}));
   --# rule Inv_{bits}_Step (Key : in {key_type}; Input : in State; R : in Integer): (R <= 0) or ((R >= {rounds}) or (Inv_{bits} (Key, Input, R) = Inv_Round (Inv_{bits} (Key, Input, R + 1), {rk} (Key, R))));
""")
    return "".join(out)


def _annotation_table() -> Dict[str, dict]:
    sbox16 = "Sbox (Integer (S (Kb)))"
    table: Dict[str, dict] = {
        "X_Time": {
            "post": ["((B < 128) and (Result = B + B)) or "
                     "((B >= 128) and (Result = ((B + B) xor 27)))"],
        },
        "GF_Mul2": {"post": ["Result = X_Time (B)"]},
        "GF_Mul3": {"post": ["Result = (X_Time (B) xor B)"]},
        "GF_Mul9": {"post": ["Result = (X_Time (X_Time (X_Time (B))) xor B)"]},
        "GF_Mul11": {"post": ["Result = (X_Time (X_Time (X_Time (B))) xor "
                              "(X_Time (B) xor B))"]},
        "GF_Mul13": {"post": ["Result = (X_Time (X_Time (X_Time (B))) xor "
                              "(X_Time (X_Time (B)) xor B))"]},
        "GF_Mul14": {"post": ["Result = (X_Time (X_Time (X_Time (B))) xor "
                              "(X_Time (X_Time (B)) xor X_Time (B)))"]},
        "Round": {"post": ["Result = Add_Round_Key (Mix_Columns "
                           "(Shift_Rows (Sub_Bytes (S))), K)"]},
        "Final_Round": {"post": ["Result = Add_Round_Key "
                                 "(Shift_Rows (Sub_Bytes (S)), K)"]},
        "Inv_Round": {"post": ["Result = Inv_Mix_Columns (Add_Round_Key "
                               "(Inv_Shift_Rows (Inv_Sub_Bytes (S)), K))"]},
        "Inv_Final_Round": {"post": ["Result = Add_Round_Key "
                                     "(Inv_Shift_Rows (Inv_Sub_Bytes (S)), "
                                     "K)"]},
        "Rcon_Word": {
            "post": ["Result (0) = Rcon (R)",
                     "for all Kb in 1 .. 3 => (Result (Kb) = 0)"],
            "asserts": {("loop", 1): [
                "W (0) = Rcon (R)",
                "for all Kb in 1 .. I - 1 => (W (Kb) = 0)"]},
        },
    }

    def elementwise(name, formula, upto=15, local="R"):
        inv, post = _loop16("Result", formula, upto=upto)
        table[name] = {
            "post": [post],
            "asserts": {("loop", 0): [inv.replace("R (", f"{local} (")]},
        }

    elementwise("Sub_Bytes", sbox16)
    elementwise("Inv_Sub_Bytes", "Inv_Sbox (Integer (S (Kb)))")
    elementwise("Shift_Rows",
                "S (4 * ((Kb / 4 + Kb mod 4) mod 4) + Kb mod 4)")
    elementwise("Inv_Shift_Rows",
                "S (4 * ((Kb / 4 + 4 - Kb mod 4) mod 4) + Kb mod 4)")
    elementwise("Add_Round_Key", "S (Kb) xor K (Kb)")
    elementwise("Rot_Word", "W ((Kb + 1) mod 4)", upto=3)
    elementwise("Sub_Word", "Sbox (Integer (W (Kb)))", upto=3)
    elementwise("Xor_Words", "A (Kb) xor B (Kb)", upto=3)

    invs, posts = _mix_annotations(_MIX_FORMULAS)
    table["Mix_Columns"] = {"post": posts, "asserts": {("loop", 0): invs}}
    invs, posts = _mix_annotations(_INV_MIX_FORMULAS)
    table["Inv_Mix_Columns"] = {"post": posts, "asserts": {("loop", 0): invs}}

    for bits, nk, words in ((128, 4, 44), (192, 6, 52), (256, 8, 60)):
        table[f"Key_Schedule_{bits}"] = _key_schedule_annotations(
            bits, nk, words)
        table[f"Round_Key_{bits}"] = {
            "post": [f"for all Kb in 0 .. 15 => (Result (Kb) = "
                     f"Key_Schedule_{bits} (Key) (4 * R + Kb / 4) "
                     f"(Kb mod 4))"],
            "asserts": {("loop", 1): [
                "for all Kb in 0 .. I - 1 => "
                "(K (Kb) = W (4 * R + Kb / 4) (Kb mod 4))"]},
        }
    for bits, rounds in ((128, 10), (192, 12), (256, 14)):
        table.update(_cipher_annotations(bits, rounds))
    return table


def _insert_asserts(body: Tuple[ast.Stmt, ...], spec: dict,
                    prefix: Tuple = ()) -> Tuple[ast.Stmt, ...]:
    out = []
    for i, stmt in enumerate(body):
        if isinstance(stmt, ast.For):
            key = ("loop",) + prefix + (i,)
            inner = _insert_asserts(stmt.body, spec, prefix + (i,))
            heads = spec.get(key, ())
            new_asserts = tuple(ast.Assert(expr=e) for e in heads)
            stmt = dataclasses.replace(stmt, body=new_asserts + inner)
        out.append(stmt)
    return tuple(out)


def _attach_annotations(source: str, table) -> ast.Package:
    from ..lang.parser import parse_expression
    # Proof functions and rules are package-level declarations.
    source = source.replace("end AES_Impl;",
                            _proof_decls() + "end AES_Impl;")
    pkg = parse_package(source)
    new_subprograms = []
    for sp in pkg.subprograms:
        spec = table.get(sp.name)
        if spec is None:
            new_subprograms.append(sp)
            continue
        pre = sp.pre + tuple(parse_expression(e)
                             for e in spec.get("pre", ()))
        post = sp.post + tuple(parse_expression(e)
                               for e in spec.get("post", ()))
        assert_specs = {k: [parse_expression(e) for e in v]
                        for k, v in spec.get("asserts", {}).items()}
        body = _insert_asserts(sp.body, assert_specs)
        new_subprograms.append(dataclasses.replace(
            sp, pre=pre, post=post, body=body))
    return dataclasses.replace(pkg, subprograms=tuple(new_subprograms))


@lru_cache(maxsize=None)
def annotated_source_package() -> ast.Package:
    """The refactored package with the full annotation set attached."""
    return _attach_annotations(refactored_source(), _annotation_table())


@lru_cache(maxsize=None)
def annotated_package() -> TypedPackage:
    return analyze(annotated_source_package())


def build_annotated(source: str, annotation_patches=()) -> TypedPackage:
    """Annotate an arbitrary (e.g. defect-seeded) variant of the refactored
    source.  ``annotation_patches`` are (old, new) pairs applied to every
    annotation formula -- how the defect experiment's setup 1 makes the
    annotations describe the defective code's actual behaviour."""
    table = _annotation_table()
    if annotation_patches:
        def patch(text: str) -> str:
            for old, new in annotation_patches:
                text = text.replace(old, new)
            return text

        patched = {}
        for name, spec in table.items():
            new_spec = dict(spec)
            if "pre" in new_spec:
                new_spec["pre"] = [patch(e) for e in new_spec["pre"]]
            if "post" in new_spec:
                new_spec["post"] = [patch(e) for e in new_spec["post"]]
            if "asserts" in new_spec:
                new_spec["asserts"] = {
                    k: [patch(e) for e in v]
                    for k, v in new_spec["asserts"].items()}
            patched[name] = new_spec
        table = patched
    return analyze(_attach_annotations(source, table))
