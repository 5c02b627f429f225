"""Splitting procedures (paper 5.1, "Splitting procedures")."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List

from ..lang import TypedPackage, ast
from .dataflow import reads_writes, reads_of_stmts
from .engine import Transformation, TransformationError

__all__ = ["SplitProcedure"]


@dataclass
class SplitProcedure(Transformation):
    """Extract the top-level statement range ``start .. end-1`` of a
    subprogram into a new procedure, computing its parameter list from
    dataflow (reads become ``in``, writes live afterwards become ``out`` or
    ``in out``, dead locals move into the new procedure)."""

    subprogram: str
    start: int
    end: int
    new_name: str

    name = "split-procedure"
    category = "splitting procedures"

    def describe(self) -> str:
        return (f"extract statements {self.start}..{self.end - 1} of "
                f"{self.subprogram} into procedure {self.new_name}")

    def affected_subprograms(self, typed):
        return [self.subprogram]

    def apply(self, typed: TypedPackage) -> ast.Package:
        sp = typed.package.subprogram(self.subprogram)
        if self.new_name in typed.signatures:
            raise TransformationError(
                f"{self.name}: '{self.new_name}' already exists")
        if not (0 <= self.start < self.end <= len(sp.body)):
            raise TransformationError(f"{self.name}: bad statement range")
        region = sp.body[self.start:self.end]
        before = sp.body[:self.start]
        after = sp.body[self.end:]
        for node in region:
            for inner in ast.walk(node):
                if isinstance(inner, ast.Return):
                    raise TransformationError(
                        f"{self.name}: region contains a return")

        ctx = typed.context(self.subprogram)
        reads, writes = reads_writes(region, typed)
        # Keep only enclosing-scope variables (not constants, not loop vars
        # introduced inside the region itself).
        scope = {p.name for p in sp.params} | {d.name for d in sp.decls}
        reads &= scope
        writes &= scope
        out_params = {p.name for p in sp.params if p.mode != "in"}
        live = reads_of_stmts(after, typed) | out_params
        if sp.is_function:
            live |= set()  # returns in `after` already counted as reads

        written_before = set()
        for s in before:
            written_before |= reads_writes([s], typed)[1]
        initialized = written_before | {p.name for p in sp.params
                                        if p.mode != "out"} \
            | {d.name for d in sp.decls if d.init is not None}

        params: List[ast.Param] = []
        moved_locals: List[ast.VarDecl] = []
        decl_types = {d.name: d.type_name for d in sp.decls}
        param_types = {p.name: p.type_name for p in sp.params}

        def type_name_of(var: str) -> str:
            if var in decl_types:
                return decl_types[var]
            return param_types[var]

        for var in sorted(reads | writes):
            is_read = var in reads
            is_written = var in writes
            needed_after = var in live
            defined_before = var in initialized
            if is_written and (is_read and defined_before):
                mode = "in out"
            elif is_written and needed_after:
                mode = "out"
            elif is_written and not needed_after:
                # Dead after the region; if it is a local used only inside
                # the region, move the declaration.
                used_elsewhere = (
                    var in reads_of_stmts(before, typed)
                    or var in reads_of_stmts(after, typed)
                    or var in reads_writes(before, typed)[1]
                    or var in reads_writes(after, typed)[1]
                    or var in param_types)
                if not used_elsewhere and var in decl_types:
                    moved_locals.append(
                        ast.VarDecl(name=var, type_name=decl_types[var]))
                    continue
                mode = "out"
            else:
                mode = "in"
            params.append(ast.Param(name=var, mode=mode,
                                    type_name=type_name_of(var)))

        new_proc = ast.Subprogram(
            name=self.new_name,
            params=tuple(params),
            return_type=None,
            decls=tuple(moved_locals),
            body=tuple(region),
        )
        call = ast.ProcCall(
            name=self.new_name,
            args=tuple(ast.Name(id=p.name) for p in params))
        remaining_decls = tuple(
            d for d in sp.decls
            if d.name not in {m.name for m in moved_locals})
        new_sp = dataclasses.replace(
            sp, decls=remaining_decls, body=before + (call,) + after)
        pkg = typed.package.replace_subprogram(self.subprogram, new_sp)
        return dataclasses.replace(
            pkg, subprograms=pkg.subprograms + (new_proc,))
