"""Modifying redundant or intermediate computations and storage
(paper 5.1) -- plus renaming, the paper's "merely tidying the code".
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from ..lang import TypedPackage, ast
from ..lang.memo import ObjectMemo
from ..lang.parser import parse_expression
from ..lang.errors import MiniAdaError
from .dataflow import reads_of_expr, reads_writes
from .engine import Transformation, TransformationError, get_block, \
    replace_block

__all__ = ["RemoveIntermediateVariable", "IntroduceIntermediateVariable",
           "RemoveDeadSubprogram", "Rename"]


@dataclass
class RemoveIntermediateVariable(Transformation):
    """Inline a local scalar assigned exactly once (at the top level) whose
    value expression stays stable until every use, then drop the
    declaration.  Shortens verification conditions by removing redundant
    intermediate names."""

    subprogram: str
    variable: str

    name = "remove-intermediate-variable"
    category = "modifying redundant or intermediate storage"
    match_neutral = True   # body/local-only: no package element changes

    @classmethod
    def enumerate_sites(cls, typed: TypedPackage):
        """Propose every local assigned exactly once at the top level of
        its body -- a cheap over-approximation; ``apply`` still checks
        nested writes and value stability."""
        for sp in typed.package.subprograms:
            for decl in sp.decls:
                assigned = [s for s in sp.body
                            if isinstance(s, ast.Assign)
                            and isinstance(s.target, ast.Name)
                            and s.target.id == decl.name]
                if len(assigned) == 1:
                    yield cls(subprogram=sp.name, variable=decl.name)

    def describe(self) -> str:
        return f"inline and remove intermediate '{self.variable}' in " \
               f"{self.subprogram}"

    def affected_subprograms(self, typed):
        return [self.subprogram]

    def apply(self, typed: TypedPackage) -> ast.Package:
        sp = typed.package.subprogram(self.subprogram)
        if self.variable not in {d.name for d in sp.decls}:
            raise TransformationError(
                f"{self.name}: '{self.variable}' is not a local variable")
        assignments = [
            (i, s) for i, s in enumerate(sp.body)
            if isinstance(s, ast.Assign)
            and isinstance(s.target, ast.Name)
            and s.target.id == self.variable]
        nested_writes = any(
            self.variable in reads_writes([s], typed)[1]
            for i, s in enumerate(sp.body)
            if not (assignments and i == assignments[0][0]))
        if len(assignments) != 1 or nested_writes:
            raise TransformationError(
                f"{self.name}: '{self.variable}' must be assigned exactly "
                f"once at the top level")
        idx, assignment = assignments[0]
        value = assignment.value
        value_reads = reads_of_expr(value)
        # The inlined expression must stay stable: nothing it reads may be
        # written after the assignment.
        for s in sp.body[idx + 1:]:
            if reads_writes([s], typed)[1] & value_reads:
                raise TransformationError(
                    f"{self.name}: value of '{self.variable}' is not stable "
                    f"over its uses")

        def substitute(node):
            if isinstance(node, ast.Name) and node.id == self.variable:
                return value
            return node

        new_tail = tuple(ast.transform_bottom_up(s, substitute)
                         for s in sp.body[idx + 1:])
        new_body = sp.body[:idx] + new_tail
        new_decls = tuple(d for d in sp.decls if d.name != self.variable)
        return typed.package.replace_subprogram(
            self.subprogram,
            dataclasses.replace(sp, body=new_body, decls=new_decls))


@dataclass
class IntroduceIntermediateVariable(Transformation):
    """Name a subexpression: insert ``VAR := EXPR`` before statement
    ``at_index`` and replace occurrences of EXPR in the following
    ``span`` statements.  Stores "extra but useful information" and makes
    annotations expressible."""

    subprogram: str
    variable: str
    type_name: str
    expression: str  # MiniAda source text
    at_index: int
    span: int = 1
    path: Tuple = ()

    name = "introduce-intermediate-variable"
    category = "modifying redundant or intermediate storage"

    def describe(self) -> str:
        return f"introduce intermediate '{self.variable}' in {self.subprogram}"

    def affected_subprograms(self, typed):
        return [self.subprogram]

    def apply(self, typed: TypedPackage) -> ast.Package:
        sp = typed.package.subprogram(self.subprogram)
        ctx = typed.context(self.subprogram)
        if ctx.var_type(self.variable) is not None:
            raise TransformationError(
                f"{self.name}: '{self.variable}' already in scope")
        try:
            raw = parse_expression(self.expression)
        except MiniAdaError as exc:
            raise TransformationError(f"{self.name}: bad expression: {exc}")
        from ..lang.typecheck import _resolve_expr
        expr = _resolve_expr(raw, typed, ctx)
        block = get_block(sp.body, self.path)
        if not (0 <= self.at_index <= len(block)):
            raise TransformationError(f"{self.name}: bad insertion point")

        replaced = 0

        def substitute(node):
            nonlocal replaced
            if node == expr:
                replaced += 1
                return ast.Name(id=self.variable)
            return node

        hi = min(len(block), self.at_index + self.span)
        rewritten = tuple(ast.transform_bottom_up(s, substitute)
                          for s in block[self.at_index:hi])
        if replaced == 0:
            raise TransformationError(
                f"{self.name}: expression does not occur in the target span")
        assignment = ast.Assign(target=ast.Name(id=self.variable), value=expr)
        new_block = (block[:self.at_index] + (assignment,) + rewritten
                     + block[hi:])
        new_decls = sp.decls + (
            ast.VarDecl(name=self.variable, type_name=self.type_name),)
        return typed.package.replace_subprogram(
            self.subprogram,
            dataclasses.replace(
                sp, decls=new_decls,
                body=replace_block(sp.body, self.path, new_block)))


def _referents(pkg: ast.Package, name: str) -> Tuple[str, ...]:
    """Package locations that still call ``name``: other subprograms (via
    FuncCall/ProcCall anywhere in their decls, body, pre or post) and
    package-level declarations whose initializer mentions it."""
    out = [sp.name for sp in pkg.subprograms
           if sp.name != name and name in _called_names(sp)]
    out.extend(getattr(decl, "name", None) or type(decl).__name__
               for decl in pkg.decls if name in _called_names(decl))
    return tuple(out)


#: node -> the names it calls (FuncCall and ProcCall, at any depth; a
#: declaration holds no statements, so only its FuncCalls count).
_CALLED = ObjectMemo()


def _called_names(node: ast.Node) -> FrozenSet[str]:
    names = _CALLED.get(node)
    if names is None:
        names = _CALLED.put(node, frozenset(
            n.name for n in ast.walk(node)
            if isinstance(n, (ast.FuncCall, ast.ProcCall))))
    return names


@dataclass
class RemoveDeadSubprogram(Transformation):
    """Delete a subprogram nothing in the package references any more.

    Superseded originals accumulate while a working copy (the ``_B``
    suffix convention) is grown next to them; once the last caller moves
    over, the original is dead storage that keeps its base name occupied
    and its verification conditions in the workload.  Removing it is the
    enabling tidy-up for the suffix-dropping renames."""

    subprogram: str

    name = "remove-dead-subprogram"
    category = "modifying redundant or intermediate storage"

    @classmethod
    def enumerate_sites(cls, typed: TypedPackage):
        """Propose every subprogram with no referents, in package order.
        Over-approximates on purpose: externally visible (observable)
        subprograms have no in-package callers either, and this class
        cannot know the caller's observable interface -- the engine
        rejects those applications instead (see
        ``RefactoringEngine.apply``)."""
        for sp in typed.package.subprograms:
            if not _referents(typed.package, sp.name):
                yield cls(subprogram=sp.name)

    def describe(self) -> str:
        return f"remove dead subprogram '{self.subprogram}'"

    def affected_subprograms(self, typed):
        return []

    def apply(self, typed: TypedPackage) -> ast.Package:
        pkg = typed.package
        if not any(sp.name == self.subprogram for sp in pkg.subprograms):
            raise TransformationError(
                f"{self.name}: no subprogram named '{self.subprogram}'")
        referents = _referents(pkg, self.subprogram)
        if referents:
            raise TransformationError(
                f"{self.name}: '{self.subprogram}' is still referenced by "
                f"{', '.join(sorted(referents))}")
        return dataclasses.replace(
            pkg, subprograms=tuple(sp for sp in pkg.subprograms
                                   if sp.name != self.subprogram))


@dataclass
class Rename(Transformation):
    """Rename a subprogram, type, or constant across the package -- the
    tidying that aligns implementation names with specification names
    (raising the structure match ratio without changing semantics)."""

    kind: str  # 'subprogram', 'type', 'constant'
    old: str
    new: str

    name = "rename"
    category = "modifying redundant or intermediate storage"

    #: Working-copy suffix the AES refactoring uses while a byte-typed
    #: replacement coexists with the word-typed original (``Encrypt_B``
    #: next to ``Encrypt``); once the original is gone, dropping the
    #: suffix is the mechanical tidy-up site enumeration proposes.
    WORKING_SUFFIX = "_B"

    @classmethod
    def enumerate_sites(cls, typed: TypedPackage):
        """Propose dropping the working-copy suffix wherever the base
        name has become free, in declaration order per kind."""
        taken = set(typed.signatures) | set(typed.types) \
            | set(typed.constants)
        groups = (
            ("subprogram", [sp.name for sp in typed.package.subprograms]),
            ("type", [d.name for d in typed.package.decls
                      if getattr(d, "name", None) in typed.types]),
            ("constant", [d.name for d in typed.package.decls
                          if getattr(d, "name", None) in typed.constants]),
        )
        for kind, names in groups:
            for old in names:
                if not old.endswith(cls.WORKING_SUFFIX):
                    continue
                new = old[:-len(cls.WORKING_SUFFIX)]
                if new and new not in taken:
                    yield cls(kind=kind, old=old, new=new)

    def describe(self) -> str:
        return f"rename {self.kind} {self.old} -> {self.new}"

    def affected_subprograms(self, typed):
        return []

    def apply(self, typed: TypedPackage) -> ast.Package:
        pkg = typed.package
        if self.kind == "subprogram":
            exists = self.old in typed.signatures
        elif self.kind == "type":
            exists = self.old in typed.types
        elif self.kind == "constant":
            exists = self.old in typed.constants
        else:
            raise TransformationError(f"{self.name}: bad kind {self.kind!r}")
        if not exists:
            raise TransformationError(
                f"{self.name}: no {self.kind} named '{self.old}'")
        taken = (set(typed.signatures) | set(typed.types)
                 | set(typed.constants))
        if self.new in taken:
            raise TransformationError(
                f"{self.name}: '{self.new}' is already in use")

        def rename_node(node):
            if self.kind == "subprogram":
                if isinstance(node, ast.FuncCall) and node.name == self.old:
                    return dataclasses.replace(node, name=self.new)
                if isinstance(node, ast.ProcCall) and node.name == self.old:
                    return dataclasses.replace(node, name=self.new)
                if isinstance(node, ast.Subprogram) and node.name == self.old:
                    return dataclasses.replace(node, name=self.new)
            elif self.kind == "type":
                if isinstance(node, ast.Conversion) and \
                        node.type_name == self.old:
                    return dataclasses.replace(node, type_name=self.new)
                if isinstance(node, (ast.VarDecl, ast.Param)) and \
                        node.type_name == self.old:
                    return dataclasses.replace(node, type_name=self.new)
                if isinstance(node, ast.ConstDecl) and \
                        node.type_name == self.old:
                    return dataclasses.replace(node, type_name=self.new)
                if isinstance(node, ast.ArrayTypeDecl):
                    updates = {}
                    if node.name == self.old:
                        updates["name"] = self.new
                    if node.elem_type == self.old:
                        updates["elem_type"] = self.new
                    if updates:
                        return dataclasses.replace(node, **updates)
                if isinstance(node, (ast.ModTypeDecl, ast.RangeTypeDecl)) \
                        and node.name == self.old:
                    return dataclasses.replace(node, name=self.new)
                if isinstance(node, ast.SubtypeDecl):
                    updates = {}
                    if node.name == self.old:
                        updates["name"] = self.new
                    if node.base == self.old:
                        updates["base"] = self.new
                    if updates:
                        return dataclasses.replace(node, **updates)
                if isinstance(node, ast.Subprogram) and \
                        node.return_type == self.old:
                    return dataclasses.replace(node, return_type=self.new)
                if isinstance(node, ast.ProofFunctionDecl) and \
                        node.return_type == self.old:
                    return dataclasses.replace(node, return_type=self.new)
            elif self.kind == "constant":
                if isinstance(node, ast.Name) and node.id == self.old:
                    return dataclasses.replace(node, id=self.new)
                if isinstance(node, ast.ConstDecl) and node.name == self.old:
                    return dataclasses.replace(node, name=self.new)
            return node

        return ast.transform_bottom_up(pkg, rename_node)
