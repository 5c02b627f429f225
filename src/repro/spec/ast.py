"""AST for MiniPVS, the functional specification language (PVS substitute).

A *theory* is a list of type definitions, constant tables, and pure
function definitions.  All nodes are frozen dataclasses (structural
equality drives lemma matching in the implication proof, just as it drives
clone detection in the refactoring engine).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from ..lang.ast import child_fields

__all__ = [
    "SNode", "SType", "NatType", "BoolType", "SubrangeType", "ArrayTypeS",
    "NamedType",
    "SExpr", "Num", "BoolConst", "Var", "Call", "Index", "IfExpr", "Let",
    "Build", "Bin", "TableLit", "ArrayLit",
    "SDecl", "TypeDef", "ConstDef", "FunDef", "Theory",
    "walk_spec",
]


class SNode:
    __slots__ = ()


class SType(SNode):
    __slots__ = ()


@dataclass(frozen=True)
class NatType(SType):
    pass


@dataclass(frozen=True)
class BoolType(SType):
    pass


@dataclass(frozen=True)
class SubrangeType(SType):
    """Naturals ``0 .. hi`` (``NAT UPTO hi``)."""

    hi: int


@dataclass(frozen=True)
class ArrayTypeS(SType):
    """Fixed-size 0-based array (``ARRAY n OF T``)."""

    size: int
    elem: "SType"


@dataclass(frozen=True)
class NamedType(SType):
    name: str


class SExpr(SNode):
    __slots__ = ()


@dataclass(frozen=True)
class Num(SExpr):
    value: int


@dataclass(frozen=True)
class BoolConst(SExpr):
    value: bool


@dataclass(frozen=True)
class Var(SExpr):
    name: str


@dataclass(frozen=True)
class Call(SExpr):
    """Application of a defined function or builtin (XOR, BITAND, BITOR,
    SHL, SHR)."""

    fn: str
    args: Tuple[SExpr, ...]


@dataclass(frozen=True)
class Index(SExpr):
    array: SExpr
    index: SExpr


@dataclass(frozen=True)
class IfExpr(SExpr):
    cond: SExpr
    then: SExpr
    orelse: SExpr


@dataclass(frozen=True)
class Let(SExpr):
    var: str
    value: SExpr
    body: SExpr


@dataclass(frozen=True)
class Build(SExpr):
    """Array comprehension ``BUILD i : n . body`` (element i = body)."""

    var: str
    size: int
    body: SExpr


@dataclass(frozen=True)
class Bin(SExpr):
    """op in: + - * DIV MOD < <= > >= = /= AND OR."""

    op: str
    left: SExpr
    right: SExpr


@dataclass(frozen=True)
class TableLit(SExpr):
    values: Tuple[int, ...]


@dataclass(frozen=True)
class ArrayLit(SExpr):
    """Element-wise array value ``{| e0, e1, ... |}`` -- produced by the
    extractor when a subprogram defines an array output element by
    element."""

    items: Tuple[SExpr, ...]


class SDecl(SNode):
    __slots__ = ()


@dataclass(frozen=True)
class TypeDef(SDecl):
    name: str
    definition: SType


@dataclass(frozen=True)
class ConstDef(SDecl):
    name: str
    type: SType
    value: SExpr


@dataclass(frozen=True)
class FunDef(SDecl):
    name: str
    params: Tuple[Tuple[str, SType], ...]
    return_type: SType
    body: SExpr
    recursive: bool = False
    measure: Optional[SExpr] = None


@dataclass(frozen=True)
class Theory(SNode):
    name: str
    decls: Tuple[SDecl, ...]

    def decl(self, name: str) -> SDecl:
        for d in self.decls:
            if d.name == name:
                return d
        raise KeyError(name)

    def functions(self) -> Tuple[FunDef, ...]:
        return tuple(d for d in self.decls if isinstance(d, FunDef))

    def constants(self) -> Tuple[ConstDef, ...]:
        return tuple(d for d in self.decls if isinstance(d, ConstDef))

    def types(self) -> Tuple[TypeDef, ...]:
        return tuple(d for d in self.decls if isinstance(d, TypeDef))


def walk_spec(node: SNode):
    """Yield node and all descendants, preorder.

    Iterative (an explicit stack), so depth is bounded by memory, not by
    the C stack of the calling thread."""
    stack = [node]
    pop = stack.pop
    while stack:
        current = pop()
        yield current
        if not dataclasses.is_dataclass(current):
            continue
        kids = []
        for name in child_fields(type(current)):
            value = getattr(current, name)
            if isinstance(value, SNode):
                kids.append(value)
            elif isinstance(value, tuple):
                for item in value:
                    if isinstance(item, SNode):
                        kids.append(item)
                    elif isinstance(item, tuple):
                        for sub in item:
                            if isinstance(sub, SNode):
                                kids.append(sub)
        if kids:
            kids.reverse()
            stack.extend(kids)
