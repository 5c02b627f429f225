"""Reversing table lookups (the paper's AES-specific category:
"Ten table lookups were replaced with explicit computations based on the
documentation and the precomputed tables removed").

:class:`ReverseTableLookup` takes a replacement function (user-supplied
source, derived from the documentation -- for AES the GF(2^8) arithmetic)
and mechanically:

1. checks, *exhaustively over the table's domain*, that the function
   computes exactly the table's entries (a proof by evaluation -- this is
   the transformation's semantics-preservation theorem);
2. replaces every lookup ``T (E)`` with the call ``F (E)``;
3. removes the table constant once it is unreferenced.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from ..lang import Interpreter, TypedPackage, ast
from ..lang.errors import MiniAdaError
from ..lang.types import ArrayType
from .engine import Transformation, TransformationError
from .inline import parse_subprogram, resolve_snippet

__all__ = ["ReverseTableLookup"]


@dataclass
class ReverseTableLookup(Transformation):
    """Replace lookups of constant ``table`` with calls to a function.

    ``function_source`` supplies a new function definition; alternatively
    ``function_name`` names one that already exists in the package.  The
    function must take one argument (the index)."""

    table: str
    function_source: Optional[str] = None
    function_name: Optional[str] = None

    name = "reverse-table-lookup"
    category = "reversing table lookups"

    #: Companion-function suffix: a function ``T_F`` next to a constant
    #: table ``T`` is, by the package's naming convention, the explicit
    #: computation the table caches -- exactly the reversal target.
    FUNCTION_SUFFIX = "_F"

    @classmethod
    def enumerate_sites(cls, typed: TypedPackage):
        """Propose reversing every constant array table that has a
        one-argument companion function ``<table>_F``, in declaration
        order.  Whether the function really computes the table is
        ``apply``'s exhaustive-evaluation theorem, not enumeration's."""
        for decl in typed.package.decls:
            name = getattr(decl, "name", None)
            if name is None or name not in typed.constants:
                continue
            if not isinstance(typed.constants[name][0], ArrayType):
                continue
            fname = name + cls.FUNCTION_SUFFIX
            sig = typed.signatures.get(fname)
            if sig is not None and sig.is_function and len(sig.params) == 1:
                yield cls(table=name, function_name=fname)

    def describe(self) -> str:
        target = self.function_name or \
            parse_subprogram(self.function_source).name
        return f"replace lookups of table {self.table} with calls to {target}"

    def affected_subprograms(self, typed):
        return []

    def apply(self, typed: TypedPackage) -> ast.Package:
        const = typed.constants.get(self.table)
        if const is None or not isinstance(const[0], ArrayType):
            raise TransformationError(
                f"{self.name}: '{self.table}' is not a constant table")
        table_type, table_values = const

        pkg = typed.package
        if self.function_source is not None:
            fn = parse_subprogram(self.function_source)
            fn = resolve_snippet(typed, fn)
            fname = fn.name
            pkg = dataclasses.replace(pkg, subprograms=pkg.subprograms + (fn,))
            from ..lang import analyze
            typed_probe = analyze(pkg)
        elif self.function_name is not None:
            fname = self.function_name
            fn = typed.signatures.get(fname)
            if fn is None or not fn.is_function:
                raise TransformationError(
                    f"{self.name}: '{fname}' is not a function")
            typed_probe = typed
        else:
            raise TransformationError(
                f"{self.name}: need function_source or function_name")
        fn_sig = typed_probe.signatures[fname]
        if len(fn_sig.params) != 1:
            raise TransformationError(
                f"{self.name}: replacement function must take one argument")

        # Semantics-preservation by exhaustive evaluation over the domain.
        interp = Interpreter(typed_probe, check_asserts=False)
        for offset, expected in enumerate(table_values):
            index = table_type.lo + offset
            try:
                actual = interp.call_function(fname, [index])
            except MiniAdaError as exc:
                raise TransformationError(
                    f"{self.name}: {fname}({index}) faults: {exc}")
            if actual != expected:
                raise TransformationError(
                    f"{self.name}: {fname}({index}) = {actual} but "
                    f"{self.table}({index}) = {expected}; the function does "
                    f"not compute the table")

        replaced = 0

        def rewrite(node):
            nonlocal replaced
            if isinstance(node, ast.ArrayRef) and \
                    isinstance(node.base, ast.Name) and \
                    node.base.id == self.table:
                replaced += 1
                return ast.FuncCall(name=fname, args=(node.index,))
            return node

        subprograms = tuple(ast.transform_bottom_up(sp, rewrite)
                            for sp in pkg.subprograms)
        decls = pkg.decls
        still_used = any(
            isinstance(n, ast.Name) and n.id == self.table
            for sp in subprograms for n in ast.walk(sp)
        ) or any(
            isinstance(n, ast.Name) and n.id == self.table
            for d in decls if not (isinstance(d, ast.ConstDecl)
                                   and d.name == self.table)
            for n in ast.walk(d)
        )
        if not still_used:
            decls = tuple(d for d in decls
                          if not (isinstance(d, ast.ConstDecl)
                                  and d.name == self.table))
        if replaced == 0:
            raise TransformationError(
                f"{self.name}: no lookups of '{self.table}' found")
        return dataclasses.replace(pkg, decls=decls, subprograms=subprograms)
