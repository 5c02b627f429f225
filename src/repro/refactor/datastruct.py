"""Adjusting data structures (the paper's AES-specific category: "32-bit
words were replaced by arrays of four bytes, and sets of four words were
packed into states as defined by the specification") -- plus the general
user-specified transformation escape hatch of section 5.2.

Representation changes are whole-program rewrites whose recognition
"requires human insight" (section 5.2), so they are expressed here the way
the paper allows: the user *specifies* the transformed subprograms and
declarations, an equivalence theorem is generated automatically, and the
proof checker (our :mod:`repro.equiv`) discharges it.  The engine applies
the change mechanically and refuses it if the theorem fails.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Tuple

from ..lang import TypedPackage, ast, parse_package
from ..lang.errors import MiniAdaError
from .engine import Transformation, TransformationError

__all__ = ["UserSpecifiedTransformation", "AdjustDataStructures"]


def _parse_decls(source: str) -> Tuple[ast.Decl, ...]:
    wrapped = f"package Snippet is\n{source}\nend Snippet;"
    try:
        pkg = parse_package(wrapped)
    except MiniAdaError as exc:
        raise TransformationError(f"cannot parse declarations: {exc}")
    if pkg.subprograms:
        raise TransformationError("declaration snippet contains subprograms")
    return pkg.decls


def _parse_subprograms(source: str) -> Tuple[ast.Subprogram, ...]:
    wrapped = f"package Snippet is\n{source}\nend Snippet;"
    try:
        pkg = parse_package(wrapped)
    except MiniAdaError as exc:
        raise TransformationError(f"cannot parse subprograms: {exc}")
    return pkg.subprograms


@dataclass
class UserSpecifiedTransformation(Transformation):
    """A transformation given by its effect: declarations to add/remove and
    subprograms to add/replace/remove.  The semantics-preservation theorem
    over the engine's observable interface is generated and checked by the
    engine on application, exactly like a library transformation."""

    description: str
    add_decls: str = ""                 # MiniAda declaration source
    remove_decls: Tuple[str, ...] = ()
    replace_subprograms: str = ""       # MiniAda subprogram source
    remove_subprograms: Tuple[str, ...] = ()
    category: str = "user-specified"
    #: Skip (rather than reject on) remove-list names that are already
    #: gone.  A hand-scripted pipeline wants the strict default -- a name
    #: missing from a known program state is a script bug.  A *planned*
    #: chain does not: the search may legitimately have tidied a dead
    #: original away (remove-dead-subprogram, suffix renames) before a
    #: catalog stage whose remove list still names it, and insisting on
    #: the name makes the stage unapplicable forever.  Soundness is
    #: unaffected either way -- the type check and the preservation
    #: theorem still gate every application.
    tolerate_missing: bool = False

    name = "user-specified"

    def describe(self) -> str:
        return self.description

    def affected_subprograms(self, typed):
        return []

    def apply(self, typed: TypedPackage) -> ast.Package:
        pkg = typed.package
        decls = list(pkg.decls)
        if self.remove_decls:
            named = set(self.remove_decls)
            found = {getattr(d, "name", None) for d in decls} & named
            if found != named and not self.tolerate_missing:
                raise TransformationError(
                    f"{self.name}: declarations not found: "
                    f"{sorted(named - found)}")
            decls = [d for d in decls
                     if getattr(d, "name", None) not in named]
        if self.add_decls:
            decls.extend(_parse_decls(self.add_decls))

        subprograms = list(pkg.subprograms)
        if self.remove_subprograms:
            named = set(self.remove_subprograms)
            present = {sp.name for sp in subprograms}
            if not named <= present and not self.tolerate_missing:
                raise TransformationError(
                    f"{self.name}: subprograms not found: "
                    f"{sorted(named - present)}")
            subprograms = [sp for sp in subprograms if sp.name not in named]
        if self.replace_subprograms:
            replacements = _parse_subprograms(self.replace_subprograms)
            by_name = {sp.name: sp for sp in replacements}
            out = []
            for sp in subprograms:
                out.append(by_name.pop(sp.name, sp))
            out.extend(by_name.values())
            subprograms = out
        return dataclasses.replace(pkg, decls=tuple(decls),
                                   subprograms=tuple(subprograms))


@dataclass
class AdjustDataStructures(UserSpecifiedTransformation):
    """Alias fixing the paper's category label for representation changes
    (word -> four-byte array, four words -> state)."""

    category: str = "adjusting data structures"

    name = "adjust-data-structures"
