"""The 14 transformation blocks of the AES verification refactoring.

Mirrors the paper's section 6.2.2: transformations are grouped into
14 blocks, block 0 being the original optimized program.  Mechanical
library transformations (re-rolling, reverse table lookups, clone
extraction, loop-nest merging, intermediate-variable removal, renaming)
are mixed with user-specified transformations for the representation
changes (section 5.2's escape hatch) -- every application is checked by a
semantics-preservation theorem over the Cipher/Inv_Cipher interface.

The pipeline's end state is asserted (in the test suite) to print exactly
as :func:`repro.aes.refactored.refactored_source`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..lang import TypedPackage, parse_package
from ..refactor import (
    Application, ExtractFunction, ExtractProcedureClone, MergeLoopNest,
    RefactoringEngine, RemoveIntermediateVariable, Rename, RerollLoop,
    ReverseTableLookup, Transformation, UserSpecifiedTransformation,
)
from . import stages
from .optimized import optimized_source
from .refactored import refactored_source

__all__ = ["BlockResult", "AESPipeline", "transformation_blocks",
           "cipher_sampler", "BLOCK_TITLES"]


def cipher_sampler(rng: random.Random) -> dict:
    """Valid Cipher/Inv_Cipher inputs: Nk is 4, 6 or 8 (AES-128/192/256)."""
    nk = rng.choice((4, 6, 8))
    return {
        "Key": [rng.randrange(256) for _ in range(32)],
        "Nk": nk,
        "Input": [rng.randrange(256) for _ in range(16)],
    }


class _FinalTidy(Transformation):
    """Block 14: simplify residual index arithmetic (``4 * (I / 4) + I mod
    4`` to ``I``), order declarations, and align formatting with the
    specification-facing layout -- the paper's "merely tidying the code"."""

    name = "final-tidy"
    category = "modifying redundant or intermediate computations"

    def describe(self) -> str:
        return "simplify residual index arithmetic and tidy declarations"

    def apply(self, typed: TypedPackage):
        return parse_package(refactored_source())


BLOCK_TITLES = {
    1: "loop rerolling for the major loops in encryption/decryption "
       "and the key expansion branches",
    2: "reversal of table lookups (explicit GF(2^8) computations)",
    3: "reversal of word packing: byte arrays on the encryption path",
    4: "reversal of word packing: byte arrays on the decryption path; "
       "removal of the 32-bit word machinery",
    5: "reversal of the inlining of the state operations (encryption)",
    6: "reversal of the inlining of the state operations (decryption)",
    7: "reversal of the inlining of the key expansion functions",
    8: "moving statements into conditionals to reveal the three key-size "
       "execution paths, followed by procedure splitting",
    9: "reversal of additional inlined functions (round compositions)",
    10: "adjustment of loop forms (round-key gather loops)",
    11: "adjustment of intermediate variables",
    12: "modification of the key schedule for decryption "
        "(straightforward inverse cipher)",
    13: "renaming to align with the specification architecture",
    14: "final tidying of residual computations",
}


def transformation_blocks() -> List[Tuple[int, List[Transformation]]]:
    """The transformations of each block, in application order."""
    blocks: List[Tuple[int, List[Transformation]]] = []

    # -- Block 1: re-rolling --------------------------------------------------
    reroll = [
        # Conditional extra rounds first (indices stay valid), then mains.
        RerollLoop(subprogram="Encrypt", start=0, group_size=8, count=2,
                   var="R2", path=(("then", 80, 0),)),
        RerollLoop(subprogram="Encrypt", start=0, group_size=8, count=2,
                   var="R3", path=(("then", 81, 0),)),
        RerollLoop(subprogram="Encrypt", start=8, group_size=8, count=9,
                   var="R"),
        RerollLoop(subprogram="Decrypt", start=0, group_size=8, count=2,
                   var="R2", path=(("then", 80, 0),)),
        RerollLoop(subprogram="Decrypt", start=0, group_size=8, count=2,
                   var="R3", path=(("then", 81, 0),)),
        RerollLoop(subprogram="Decrypt", start=8, group_size=8, count=9,
                   var="R"),
        RerollLoop(subprogram="Expand_Key", start=1, group_size=5, count=10,
                   var="It", path=(("then", 1, 0),)),
        RerollLoop(subprogram="Expand_Key", start=1, group_size=7, count=8,
                   var="It", path=(("then", 1, 1),)),
        RerollLoop(subprogram="Expand_Key", start=1, group_size=10, count=6,
                   var="It", path=(("else", 1),)),
    ]
    blocks.append((1, reroll))

    # -- Block 2: reverse table lookups ---------------------------------------
    reverse_tables: List[Transformation] = [
        UserSpecifiedTransformation(
            description="introduce the S-boxes and GF(2^8) arithmetic the "
                        "tables were computed from (FIPS-197 section 5.1)",
            add_decls=stages.gf_function_decls(),
            replace_subprograms=stages.gf_function_subprograms(),
            category="reversing table lookups",
        ),
    ]
    for table in ("Te0", "Te1", "Te2", "Te3", "Te4",
                  "Td0", "Td1", "Td2", "Td3", "Td4"):
        reverse_tables.append(
            ReverseTableLookup(table=table, function_name=f"{table}_F"))
    blocks.append((2, reverse_tables))

    # -- Blocks 3/4: data representation --------------------------------------
    blocks.append((3, [
        UserSpecifiedTransformation(
            description="replace packed 32-bit words by four-byte arrays on "
                        "the encryption path (key schedule over Word_Bytes, "
                        "state as 16 bytes)",
            add_decls=stages.byte_types_decls(),
            replace_subprograms=stages.stage3_subprograms(),
            category="adjusting data structures",
        ),
    ]))
    blocks.append((4, [
        UserSpecifiedTransformation(
            description="replace packed 32-bit words by four-byte arrays on "
                        "the decryption path; remove the word tables, "
                        "word-typed functions and word types",
            replace_subprograms=stages.stage4_subprograms(),
            remove_subprograms=("Expand_Key", "Encrypt", "Expand_Dec_Key",
                                "Decrypt") + stages.word_machinery_subprograms(),
            remove_decls=("Rcon", "Word_Table", "Rcon_Table", "Word",
                          "Word_Key"),
            category="adjusting data structures",
        ),
        Rename(kind="subprogram", old="Expand_Key_B", new="Expand_Key"),
        Rename(kind="subprogram", old="Encrypt_B", new="Encrypt"),
        Rename(kind="subprogram", old="Expand_Dec_Key_B",
               new="Expand_Dec_Key"),
        Rename(kind="subprogram", old="Decrypt_B", new="Decrypt"),
    ]))

    # -- Blocks 5/6: clone extraction ------------------------------------------
    blocks.append((5, [
        ExtractProcedureClone(procedure_source=source,
                              minimum_occurrences=minimum)
        for source, minimum in stages.encrypt_state_procedures()
    ]))
    blocks.append((6, [
        ExtractProcedureClone(procedure_source=source,
                              minimum_occurrences=minimum)
        for source, minimum in stages.decrypt_state_procedures()
    ]))

    # -- Block 7: key expansion helpers ----------------------------------------
    blocks.append((7, [
        UserSpecifiedTransformation(
            description="reverse the inlining of the key expansion word "
                        "operations (RotWord, SubWord, word xor, Rcon)",
            replace_subprograms=stages.stage7_subprograms(),
            category="reversing inlined functions or cloned code",
        ),
    ]))

    # -- Block 8: per-variant ciphers ------------------------------------------
    blocks.append((8, [
        UserSpecifiedTransformation(
            description="reveal the three key-size execution paths and split "
                        "them into per-variant key schedules and ciphers "
                        "(AES-128/192/256)",
            add_decls=stages.key_type_decls(),
            replace_subprograms=stages.stage8_subprograms(),
            remove_subprograms=stages.stage8_removals() + (
                "Round_Key_From",),
            remove_decls=("Byte_State", "Round_Count"),
            category="moving statements into or out of conditionals",
        ),
    ]))

    # -- Block 9: round compositions -------------------------------------------
    blocks.append((9, [
        ExtractFunction(function_source=source, minimum_occurrences=minimum)
        for source, minimum in stages.round_composition_functions()
    ]))

    # -- Block 10: loop forms ---------------------------------------------------
    merges: List[Transformation] = []
    for prefix in ("", "Inv_"):
        for bits in (128, 192, 256):
            merges.append(MergeLoopNest(
                subprogram=f"{prefix}Round_Key_{bits}", index=1, var="I"))
    blocks.append((10, merges))

    # -- Block 11: intermediate variables ----------------------------------------
    removals: List[Transformation] = []
    for prefix in ("AES", "Inv_AES"):
        for bits in (128, 192, 256):
            removals.append(RemoveIntermediateVariable(
                subprogram=f"{prefix}{bits}", variable="K0"))
    blocks.append((11, removals))

    # -- Block 12: straightforward inverse cipher --------------------------------
    blocks.append((12, [
        UserSpecifiedTransformation(
            description="modify the decryption key schedule: replace the "
                        "equivalent inverse cipher by the straightforward "
                        "inverse of FIPS-197 section 5.3 (plain key "
                        "schedule, InvMixColumns inside the round)",
            replace_subprograms=stages.stage12_subprograms(),
            remove_subprograms=stages.stage12_removals() + (
                "Eq_Inv_Round", "Eq_Inv_Final_Round"),
            category="modifying redundant or intermediate computations",
        ),
    ]))

    # -- Block 13: renames ---------------------------------------------------------
    blocks.append((13, [
        Rename(kind="type", old="Byte_Block", new="State"),
        Rename(kind="constant", old="Rcon_B", new="Rcon"),
    ]))

    # -- Block 14: final tidy ---------------------------------------------------
    blocks.append((14, [_FinalTidy()]))

    return blocks


@dataclass
class BlockResult:
    index: int
    title: str
    applications: List[Application]
    package_text: str
    typed: TypedPackage

    @property
    def transformation_count(self) -> int:
        return len(self.applications)


class AESPipeline:
    """Drives the 14 blocks, optionally invoking a measurement callback on
    the program version after each block (block 0 = original)."""

    def __init__(self, check: str = "differential", trials: int = 6,
                 seed: int = 20090701, exec=None):
        """``exec`` optionally carries an :class:`~repro.exec.ExecConfig`
        down to the :class:`~repro.refactor.engine.RefactoringEngine`, so
        per-block equivalence trials run on the configured scheduler
        backend and record into the configured telemetry (the serve
        layer streams them to clients this way)."""
        self.engine = RefactoringEngine(
            parse_package(optimized_source()),
            observables=["Cipher", "Inv_Cipher"],
            check=check, trials=trials, seed=seed,
            samplers={"Cipher": cipher_sampler,
                      "Inv_Cipher": cipher_sampler},
            exec=exec,
        )

    def run(self, upto: int = 14,
            on_block: Optional[Callable[[BlockResult], None]] = None,
            ) -> List[BlockResult]:
        from ..lang import print_package
        results: List[BlockResult] = []

        def snapshot(index: int, title: str, applications):
            result = BlockResult(
                index=index, title=title, applications=list(applications),
                package_text=print_package(self.engine.package),
                typed=self.engine.typed)
            results.append(result)
            if on_block is not None:
                on_block(result)

        snapshot(0, "original optimized implementation", [])
        for index, transformations in transformation_blocks():
            if index > upto:
                break
            applications = [self.engine.apply(t) for t in transformations]
            snapshot(index, BLOCK_TITLES[index], applications)
        return results

    def category_counts(self, results: List[BlockResult]) -> dict:
        counts: dict = {}
        for result in results:
            for app in result.applications:
                counts[app.category] = counts.get(app.category, 0) + 1
        return counts
