"""Architectural and direct mapping between two theories.

The implication proof is organized around a mapping from the original
specification's key structural elements to the extracted specification's
(section 4.1).  Matching is by normalized name (case/underscore
insensitive) with arity agreement for functions and size agreement for
tables -- the refactoring process is what makes these names line up, via
``Rename``, ``ExtractFunction`` and friends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..spec import ast as s

__all__ = ["MatchedPair", "ArchitecturalMap", "build_map", "normalize_name"]


def normalize_name(name: str) -> str:
    return name.replace("_", "").lower()


@dataclass(frozen=True)
class MatchedPair:
    kind: str  # 'type', 'table', 'function'
    original: str
    extracted: str


@dataclass
class ArchitecturalMap:
    pairs: List[MatchedPair] = field(default_factory=list)
    unmatched_original: List[Tuple[str, str]] = field(default_factory=list)
    unmatched_extracted: List[Tuple[str, str]] = field(default_factory=list)

    def function_pairs(self) -> List[MatchedPair]:
        return [p for p in self.pairs if p.kind == "function"]

    def table_pairs(self) -> List[MatchedPair]:
        return [p for p in self.pairs if p.kind == "table"]


def _elements(theory: s.Theory):
    for d in theory.decls:
        if isinstance(d, s.TypeDef):
            yield ("type", d.name, 0)
        elif isinstance(d, s.ConstDef):
            if isinstance(d.type, s.ArrayTypeS):
                yield ("table", d.name, d.type.size)
            else:
                yield ("table", d.name, 0)
        elif isinstance(d, s.FunDef):
            yield ("function", d.name, len(d.params))


def build_map(original: s.Theory, extracted: s.Theory) -> ArchitecturalMap:
    amap = ArchitecturalMap()
    extracted_index: Dict[Tuple[str, str], List[Tuple[str, int]]] = {}
    for kind, name, arity in _elements(extracted):
        extracted_index.setdefault((kind, normalize_name(name)), []).append(
            (name, arity))
    used = set()
    for kind, name, arity in _elements(original):
        candidates = extracted_index.get((kind, normalize_name(name)), [])
        match = None
        for cand_name, cand_arity in candidates:
            if cand_name in used:
                continue
            if kind == "function" and cand_arity != arity:
                continue
            match = cand_name
            break
        if match is not None:
            used.add(match)
            amap.pairs.append(MatchedPair(kind=kind, original=name,
                                          extracted=match))
        else:
            amap.unmatched_original.append((kind, name))
    matched_extracted = {p.extracted for p in amap.pairs}
    for kind, name, arity in _elements(extracted):
        if name not in matched_extracted:
            amap.unmatched_extracted.append((kind, name))
    return amap
