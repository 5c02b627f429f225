"""Annotation utilities: counting (paper Table 1) and stripping.

In the paper, annotations are SPARK comment lines (``--# pre``, ``--# post``,
``--# assert``) plus proof functions and proof rules.  Table 1 reports the
*lines* of each annotation category in the fully annotated refactored AES;
our canonical printer emits one line per annotation, so counting annotation
nodes counts lines.

Stripping annotations (or replacing every postcondition with ``true``) is
how the paper measured VC metrics *before* annotation was complete
(section 6.2.2: "we set the postconditions for all subprograms to true for
each version of the refactored code").
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from . import ast
from .memo import ObjectMemo

__all__ = ["AnnotationCounts", "count_annotations", "strip_annotations",
           "with_true_postconditions"]


@dataclass(frozen=True)
class AnnotationCounts:
    """Annotation line counts, matching the rows of Table 1."""

    preconditions: int
    postconditions: int
    invariants_and_asserts: int
    proof_functions_rules_other: int

    @property
    def total(self) -> int:
        return (self.preconditions + self.postconditions
                + self.invariants_and_asserts + self.proof_functions_rules_other)


def count_annotations(pkg: ast.Package) -> AnnotationCounts:
    pre = post = asserts = proof = 0
    for d in pkg.decls:
        if isinstance(d, (ast.ProofFunctionDecl, ast.ProofRuleDecl)):
            proof += 1
    for sp in pkg.subprograms:
        pre += len(sp.pre)
        post += len(sp.post)
        for node in ast.walk(sp):
            if isinstance(node, ast.Assert):
                asserts += 1
    return AnnotationCounts(
        preconditions=pre,
        postconditions=post,
        invariants_and_asserts=asserts,
        proof_functions_rules_other=proof,
    )


def _strip_stmts(stmts):
    out = []
    for s in stmts:
        if isinstance(s, ast.Assert):
            continue
        if isinstance(s, ast.If):
            branches = tuple((c, _strip_stmts(b)) for c, b in s.branches)
            out.append(ast.If(branches=branches,
                              else_body=_strip_stmts(s.else_body)))
        elif isinstance(s, ast.For):
            out.append(dataclasses.replace(s, body=_strip_stmts(s.body)))
        elif isinstance(s, ast.While):
            out.append(dataclasses.replace(s, body=_strip_stmts(s.body)))
        else:
            out.append(s)
    return tuple(out)


def strip_annotations(pkg: ast.Package) -> ast.Package:
    """Remove every annotation: pre/post, asserts, proof functions/rules."""
    decls = tuple(d for d in pkg.decls
                  if not isinstance(d, (ast.ProofFunctionDecl, ast.ProofRuleDecl)))
    subprograms = tuple(
        dataclasses.replace(sp, pre=(), post=(), body=_strip_stmts(sp.body))
        for sp in pkg.subprograms)
    return dataclasses.replace(pkg, decls=decls, subprograms=subprograms)


def with_true_postconditions(pkg: ast.Package) -> ast.Package:
    """The paper's pre-annotation measurement configuration: drop user
    pre/post (equivalent to setting postconditions to ``true``) but keep the
    code, so only exception-freedom and cut-point VCs are generated.

    A subprogram object is stripped once: stripping the same object
    again returns the same stripped object, so a later ``analyze`` can
    reuse its earlier resolution (see :mod:`repro.lang.typecheck`)."""
    return dataclasses.replace(pkg, subprograms=tuple(
        _without_contract(sp) for sp in pkg.subprograms))


#: subprogram -> the same subprogram without pre/postconditions.
_STRIPPED = ObjectMemo()


def _without_contract(sp: ast.Subprogram) -> ast.Subprogram:
    if not sp.pre and not sp.post:
        return sp
    stripped = _STRIPPED.get(sp)
    if stripped is None:
        stripped = _STRIPPED.put(sp, dataclasses.replace(sp, pre=(), post=()))
    return stripped
