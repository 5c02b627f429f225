"""Specification-structure metrics (paper section 5.2).

"A summary and comparison of the architectures of the original and the
extracted specifications to suggest an initial impression of the likely
difficulty of the implication proof."

An :class:`ArchitectureSummary` lists a unit's *key structural elements* --
the paper's phrase: "data types, operators, functions and tables" -- in a
representation-neutral form so a MiniAda package and a MiniPVS
specification can be compared.  The match-ratio computation itself lives in
:mod:`repro.extract.matchratio`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from ..lang import ast

__all__ = ["Element", "ArchitectureSummary", "package_architecture"]


@dataclass(frozen=True)
class Element:
    """One key structural element.

    ``kind`` is 'type', 'table', 'function' or 'operator'; ``arity`` is the
    parameter count for functions/operators, 0 otherwise.
    """

    kind: str
    name: str
    arity: int = 0

    def normalized_name(self) -> str:
        return self.name.replace("_", "").lower()


@dataclass(frozen=True)
class ArchitectureSummary:
    unit: str
    elements: Tuple[Element, ...]

    @property
    def names(self) -> FrozenSet[str]:
        return frozenset(e.normalized_name() for e in self.elements)


def package_architecture(pkg: ast.Package) -> ArchitectureSummary:
    """Key structural elements of a MiniAda package."""
    elements = []
    for d in pkg.decls:
        if isinstance(d, (ast.ModTypeDecl, ast.RangeTypeDecl,
                          ast.SubtypeDecl, ast.ArrayTypeDecl)):
            elements.append(Element(kind="type", name=d.name))
        elif isinstance(d, ast.ConstDecl):
            elements.append(Element(kind="table", name=d.name))
    for sp in pkg.subprograms:
        elements.append(Element(kind="function", name=sp.name,
                                arity=len(sp.params)))
    return ArchitectureSummary(unit=pkg.name, elements=tuple(elements))
