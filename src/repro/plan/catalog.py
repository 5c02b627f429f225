"""Planner catalogs: the user-specified moves the search may propose.

The transformation library's mechanical families enumerate their own
sites (:meth:`~repro.refactor.engine.Transformation.enumerate_sites`),
but the paper's pipeline also leans on *user-specified* transformations
-- representation changes, clone-extraction targets, wholesale layout
alignment -- that no pattern matcher can invent (section 5.2's escape
hatch).  A :class:`Catalog` packages those as guarded moves: each entry
carries a transformation instance plus a ``min_match`` gate (the
structure-match fraction the program must already have reached before
the move is worth proposing) and is proposed at most once per chain.

Crucially, an entry is a *proposal*, nothing more: the planner still
evaluates it against every mechanical candidate on equal scoring terms,
and the engine still checks it with a semantics-preservation theorem
before it can join the chain.  The catalog tells the search what a human
*might* try; the metrics and theorems decide what survives.

A ``goal=True`` entry marks a terminal move: reaching a state through it
completes the plan.  For AES the goal is
:class:`AlignWithSpecification` -- the paper's final "merely tidying"
rewrite into the specification-facing layout -- gated at ``min_match``
high enough (0.90) that it only fires after the renames that align the
architecture, which keeps the search from short-circuiting through the
tidy rewrite from the unrolled original (where its theorem would still
pass, but nothing would have been *discovered*).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Sequence, Tuple

from ..lang import TypedPackage, ast, parse_package
from ..refactor import Transformation

__all__ = ["CatalogEntry", "Catalog", "AlignWithSpecification",
           "aes_catalog"]


@dataclass
class AlignWithSpecification(Transformation):
    """Rewrite the package into a given specification-facing layout.

    The planner's terminal tidy: simplify residual index arithmetic,
    order declarations, align formatting.  Like every transformation it
    is validated by the engine's semantics-preservation theorem over the
    observables -- the target source earns its way in by behaving
    identically, not by being trusted."""

    target_source: str

    name = "align-with-specification"
    category = "modifying redundant or intermediate computations"

    def describe(self) -> str:
        return ("rewrite into the specification-aligned layout "
                "(tidy residual computations)")

    def affected_subprograms(self, typed):
        return []

    def apply(self, typed: TypedPackage) -> ast.Package:
        return parse_package(self.target_source)


@dataclass(frozen=True)
class CatalogEntry:
    """One guarded user-specified move."""

    name: str                     # unique within the catalog
    transformation: Transformation
    min_match: float = 0.0        # propose only at/above this match fraction
    goal: bool = False            # reaching it completes the plan


@dataclass
class Catalog:
    entries: Tuple[CatalogEntry, ...] = ()

    def proposals(self, match_fraction: float,
                  applied: frozenset) -> List[CatalogEntry]:
        """Entries proposable from a state: gate passed, not yet on the
        chain.  Deterministic: catalog order."""
        return [e for e in self.entries
                if e.name not in applied and match_fraction >= e.min_match]


def aes_catalog() -> Catalog:
    """The user-specified moves of the AES case study (section 6.2.2).

    These are the manual pipeline's own moves, taken from its blocks
    (:func:`repro.aes.blocks.transformation_blocks`) -- the planner's job
    is to discover *when* each belongs in the chain, interleaved with
    which mechanical sites, not to re-derive the GF(2^8) arithmetic from
    the documentation.
    ``min_match`` gates are deliberately coarse: only the terminal tidy
    needs one, because an unguarded full rewrite would let the search
    skip the discovery problem entirely.  Stages with remove lists are
    ``tolerate_missing``: the search interleaves its own tidying (dead-
    subprogram removal, suffix renames) with the staged moves, so a
    superseded original a stage would delete may already be gone by the
    time the stage is tried -- the hand pipeline's strict not-found
    error would strand the stage permanently."""
    from ..aes.blocks import transformation_blocks
    from ..aes.refactored import refactored_source

    blocks = dict(transformation_blocks())

    def tolerant(move):
        return replace(move, tolerate_missing=True)

    entries: List[CatalogEntry] = [
        CatalogEntry("gf-arithmetic", blocks[2][0]),
        CatalogEntry("bytes-encrypt", blocks[3][0]),
        CatalogEntry("bytes-decrypt", tolerant(blocks[4][0])),
        CatalogEntry("keyexpansion-helpers", blocks[7][0]),
        CatalogEntry("per-variant-ciphers", tolerant(blocks[8][0])),
        CatalogEntry("straightforward-inverse", tolerant(blocks[12][0])),
    ]
    for move in blocks[5] + blocks[6] + blocks[9]:
        source = getattr(move, "procedure_source", None) \
            or move.function_source
        name = source.split("(")[0].split()[-1]
        entries.append(CatalogEntry(f"extract-{name}", move))
    entries.append(CatalogEntry(
        "align-architecture",
        AlignWithSpecification(target_source=refactored_source()),
        min_match=0.90, goal=True))
    return Catalog(entries=tuple(entries))
