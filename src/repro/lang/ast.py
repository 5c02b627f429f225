"""Abstract syntax tree for MiniAda.

All nodes are frozen dataclasses, so:

* structural equality (``==``) is exactly what clone detection and
  anti-unification in the refactoring engine need;
* nodes are shareable and hashable; rewriting builds new trees with
  ``dataclasses.replace`` and the generic helpers at the bottom of this
  module.

Deliberately *not* stored on nodes: source line numbers (they would break
structural equality).  Line-based metrics are computed from pretty-printed
canonical source (:mod:`repro.lang.printer`), which is also how the paper's
line counts work -- they measure the refactored text, not the parse tree.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "Node", "Expr", "Stmt", "Decl",
    "IntLit", "BoolLit", "Name", "App", "ArrayRef", "FuncCall", "Conversion", "BinOp",
    "UnOp", "Aggregate", "OldExpr", "ForAll",
    "Assign", "If", "For", "While", "ProcCall", "Return", "Null", "Assert",
    "Param", "VarDecl", "ConstDecl", "ModTypeDecl", "RangeTypeDecl",
    "ArrayTypeDecl", "SubtypeDecl", "ProofFunctionDecl", "ProofRuleDecl",
    "Subprogram", "Package",
    "children", "transform_bottom_up", "walk", "count_nodes",
    "field_names", "child_fields",
]


class Node:
    """Marker base class for all AST nodes."""

    __slots__ = ()


class Expr(Node):
    __slots__ = ()


class Stmt(Node):
    __slots__ = ()


class Decl(Node):
    __slots__ = ()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool


@dataclass(frozen=True)
class Name(Expr):
    id: str


@dataclass(frozen=True)
class App(Expr):
    """Unresolved application ``Prefix (Args)`` -- array indexing and
    function calls are syntactically identical in Ada.  The resolver
    (:mod:`repro.lang.typecheck`) rewrites every ``App`` into
    :class:`ArrayRef` or :class:`FuncCall`."""

    prefix: Expr
    args: Tuple[Expr, ...]


@dataclass(frozen=True)
class ArrayRef(Expr):
    """Resolved array indexing; multi-level indexing nests ArrayRefs."""

    base: Expr
    index: Expr


@dataclass(frozen=True)
class FuncCall(Expr):
    name: str
    args: Tuple[Expr, ...]


@dataclass(frozen=True)
class Conversion(Expr):
    """Ada-style type conversion ``TypeName (Operand)``.  Converting into a
    narrower type carries a run-time range check (a VC in the proofs)."""

    type_name: str
    operand: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    """``op`` is one of ``+ - * / mod = /= < <= > >= and or xor and_then
    or_else``.  ``and``/``or``/``xor`` are boolean on Boolean operands and
    bitwise on modular operands, as in Ada."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnOp(Expr):
    op: str  # 'not' or '-'
    operand: Expr


@dataclass(frozen=True)
class Aggregate(Expr):
    """Positional array aggregate ``(e1, e2, ...)`` with an optional
    ``others => e`` default component."""

    items: Tuple[Expr, ...]
    others: Optional[Expr] = None


@dataclass(frozen=True)
class OldExpr(Expr):
    """``X~`` in an annotation: the value of X on subprogram entry."""

    name: str


@dataclass(frozen=True)
class ForAll(Expr):
    """``for all I in L .. H => (Body)`` -- annotation expressions only."""

    var: str
    lo: Expr
    hi: Expr
    body: Expr


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Assign(Stmt):
    target: Expr  # Name or (nested) ArrayRef/App
    value: Expr


@dataclass(frozen=True)
class If(Stmt):
    """``branches`` holds (condition, body) for the if and each elsif."""

    branches: Tuple[Tuple[Expr, Tuple[Stmt, ...]], ...]
    else_body: Tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class For(Stmt):
    var: str
    lo: Expr
    hi: Expr
    body: Tuple[Stmt, ...]
    reverse: bool = False


@dataclass(frozen=True)
class While(Stmt):
    cond: Expr
    body: Tuple[Stmt, ...]


@dataclass(frozen=True)
class ProcCall(Stmt):
    name: str
    args: Tuple[Expr, ...]


@dataclass(frozen=True)
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass(frozen=True)
class Null(Stmt):
    pass


@dataclass(frozen=True)
class Assert(Stmt):
    """``--# assert E;`` -- a proof cut point; inside a loop body it acts as
    the loop invariant."""

    expr: Expr


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Param(Node):
    name: str
    mode: str  # 'in', 'out', 'in out'
    type_name: str


@dataclass(frozen=True)
class VarDecl(Decl):
    name: str
    type_name: str
    init: Optional[Expr] = None


@dataclass(frozen=True)
class ConstDecl(Decl):
    name: str
    type_name: str
    value: Expr


@dataclass(frozen=True)
class ModTypeDecl(Decl):
    name: str
    modulus: int


@dataclass(frozen=True)
class RangeTypeDecl(Decl):
    name: str
    lo: int
    hi: int


@dataclass(frozen=True)
class SubtypeDecl(Decl):
    name: str
    base: str
    lo: int
    hi: int


@dataclass(frozen=True)
class ArrayTypeDecl(Decl):
    name: str
    lo: int
    hi: int
    elem_type: str


@dataclass(frozen=True)
class ProofFunctionDecl(Decl):
    """``--# function Name (P : T; ...) return T;`` -- a function usable in
    annotations, defined by proof rules rather than code."""

    name: str
    params: Tuple[Param, ...]
    return_type: str


@dataclass(frozen=True)
class ProofRuleDecl(Decl):
    """``--# rule Name (P : T; ...): Expr;`` -- a fact handed to the
    prover.  The parameters are universally quantified (SPARK FDL rule
    variables made explicit)."""

    name: str
    expr: Expr
    params: Tuple[Param, ...] = ()


@dataclass(frozen=True)
class Subprogram(Decl):
    name: str
    params: Tuple[Param, ...]
    return_type: Optional[str]  # None for procedures
    decls: Tuple[VarDecl, ...]
    body: Tuple[Stmt, ...]
    pre: Tuple[Expr, ...] = ()
    post: Tuple[Expr, ...] = ()

    @property
    def is_function(self) -> bool:
        return self.return_type is not None


@dataclass(frozen=True)
class Package(Node):
    name: str
    decls: Tuple[Decl, ...]  # types, constants, proof functions/rules
    subprograms: Tuple[Subprogram, ...]

    def subprogram(self, name: str) -> Subprogram:
        for sp in self.subprograms:
            if sp.name == name:
                return sp
        raise KeyError(name)

    def decl(self, name: str) -> Decl:
        for d in self.decls:
            if getattr(d, "name", None) == name:
                return d
        raise KeyError(name)

    def replace_subprogram(self, name: str, new: "Subprogram") -> "Package":
        subs = tuple(new if sp.name == name else sp for sp in self.subprograms)
        return dataclasses.replace(self, subprograms=subs)


# ---------------------------------------------------------------------------
# Generic traversal
# ---------------------------------------------------------------------------

#: Field annotations that can never hold a node.  Node modules use
#: postponed annotations, so annotations are strings; a field with any
#: other annotation is visited and its value checked at run time.
_SCALAR_ANNOTATIONS = frozenset({"str", "int", "bool"})

# Per-class field tables, filled on first sight of a class.  A class's
# dataclass fields never change, so each entry is computed once from
# ``dataclasses.fields`` (which rebuilds its list on every call).
_FIELD_NAMES: dict = {}
_CHILD_FIELDS: dict = {}


def _learn_fields(cls) -> None:
    fields = dataclasses.fields(cls)
    _CHILD_FIELDS[cls] = tuple(f.name for f in fields
                               if f.type not in _SCALAR_ANNOTATIONS)
    _FIELD_NAMES[cls] = tuple(f.name for f in fields)


def field_names(cls) -> Tuple[str, ...]:
    """Every dataclass field name of node class ``cls``, in declaration
    order."""
    names = _FIELD_NAMES.get(cls)
    if names is None:
        _learn_fields(cls)
        names = _FIELD_NAMES[cls]
    return names


def child_fields(cls) -> Tuple[str, ...]:
    """The fields of node class ``cls`` that may hold child nodes, in
    declaration order: every field but those annotated ``str``, ``int``
    or ``bool``.  Works for any dataclass node family (MiniAda here,
    MiniPVS in :mod:`repro.spec.ast`)."""
    names = _CHILD_FIELDS.get(cls)
    if names is None:
        _learn_fields(cls)
        names = _CHILD_FIELDS[cls]
    return names


def _append_children(node: Node, out: list) -> None:
    """Append the direct child nodes of ``node`` to ``out``, in field
    order.  Tuples nest at most three deep (``If.branches`` entries)."""
    names = _CHILD_FIELDS.get(type(node))
    if names is None:
        names = child_fields(type(node))
    for name in names:
        value = getattr(node, name)
        if isinstance(value, Node):
            out.append(value)
        elif isinstance(value, tuple):
            for item in value:
                if isinstance(item, Node):
                    out.append(item)
                elif isinstance(item, tuple):
                    for sub in item:
                        if isinstance(sub, Node):
                            out.append(sub)
                        elif isinstance(sub, tuple):
                            for s in sub:
                                if isinstance(s, Node):
                                    out.append(s)


def children(node: Node):
    """Iterate over the direct child nodes of ``node`` (depth 1), in field
    order."""
    out = []
    _append_children(node, out)
    return iter(out)


def walk(node: Node):
    """Yield ``node`` and every descendant, preorder.

    A generator, so a caller that stops early (``any(...)``) pays only
    for the nodes it saw."""
    stack = [node]
    pop = stack.pop
    while stack:
        current = pop()
        yield current
        kids = []
        _append_children(current, kids)
        if kids:
            kids.reverse()
            stack.extend(kids)


def count_nodes(node: Node) -> int:
    count = 0
    stack = [node]
    pop = stack.pop
    while stack:
        count += 1
        _append_children(pop(), stack)
    return count


def _rebuild_value(value, fn):
    if isinstance(value, Node):
        return transform_bottom_up(value, fn)
    if isinstance(value, tuple):
        return tuple([_rebuild_value(item, fn) for item in value])
    return value


def transform_bottom_up(node: Node, fn):
    """Rebuild ``node`` bottom-up, applying ``fn`` to every node after its
    children have been transformed.  ``fn`` returns a replacement node (or
    the node unchanged)."""
    names = _CHILD_FIELDS.get(type(node))
    if names is None:
        names = child_fields(type(node))
    updates = {}
    for name in names:
        value = getattr(node, name)
        new_value = _rebuild_value(value, fn)
        if new_value is not value and new_value != value:
            updates[name] = new_value
    if updates:
        node = dataclasses.replace(node, **updates)
    result = fn(node)
    return node if result is None else result
