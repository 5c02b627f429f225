"""Full specification extraction (reverse synthesis).

For each subprogram with a functional reading (a function, or a procedure
with exactly one out parameter), the extractor:

1. executes the body symbolically *without* inlining called subprograms --
   calls stay as applications, preserving the call architecture (the
   paper's *architectural and direct mapping*);
2. converts the resulting summary term into a MiniPVS expression
   (array outputs element-wise);
3. emits a spec function with directly mapped parameter and result types.

Types and constant tables are mapped directly, so the extracted theory has
the same key structural elements as the code -- which, after verification
refactoring, is also the structure of the original specification.
"""

from __future__ import annotations

from typing import Dict, List

from ..equiv.symbolic import SymbolicExecutor, UnsupportedProgram
from ..lang import TypedPackage, ast
from ..lang.types import ArrayType
from ..logic import Term, intc, select
from ..spec import ast as s
from .skeleton import _function_signature, map_type
from .termtospec import TermConversionError, term_to_spec

__all__ = ["ExtractionResult", "extract_specification"]


class _ArchitecturalExecutor(SymbolicExecutor):
    """Symbolic execution that maps calls instead of inlining them.

    * function calls already stay as ``apply`` terms (we disable inlining);
    * a call to a procedure with one out parameter binds that argument to
      ``apply(procedure, in-args)`` -- the procedure's functional reading.
    """

    def _inline_calls(self, term, depth):
        return term

    def _call(self, stmt, state, ctx, sp, depth):
        from ..logic import apply as apply_term
        callee = self.typed.signatures[stmt.name]
        outs = [(arg, p) for arg, p in zip(stmt.args, callee.params)
                if p.mode != "in"]
        ins = [self._expr(arg, state, ctx, sp)
               for arg, p in zip(stmt.args, callee.params)
               if p.mode != "out"]
        if len(outs) == 1:
            value = apply_term(stmt.name, *ins)
            self._store(outs[0][0], value, state, ctx, sp)
            return None, None
        # Fall back to inlining for multi-output procedures.
        return super()._call(stmt, state, ctx, sp, depth)


class ExtractionResult:
    def __init__(self, theory: s.Theory,
                 skipped: Dict[str, str]):
        self.theory = theory
        #: subprogram name -> reason it has no functional reading
        self.skipped = skipped


def _scalar_terms(term: Term, out_type):
    """Nested lists of the scalar element terms of an array output."""
    if isinstance(out_type, ArrayType):
        return [_scalar_terms(select(term, intc(k)), out_type.elem)
                for k in range(out_type.length)]
    return term


def _flatten(structure, into):
    if isinstance(structure, list):
        for item in structure:
            _flatten(item, into)
    else:
        into.append(structure)


def _rebuild(structure, exprs_iter):
    if isinstance(structure, list):
        return s.ArrayLit(items=tuple(_rebuild(item, exprs_iter)
                                      for item in structure))
    return next(exprs_iter)


def _output_to_spec(term: Term, out_type, constants) -> s.SExpr:
    """Convert an output term; array outputs convert element-wise with
    LET-bound sharing across all elements (so the printed function is
    linear in the summary DAG, not its tree expansion)."""
    from .termtospec import terms_to_spec, wrap_lets
    if isinstance(out_type, ArrayType):
        # A whole-array expression (a call or conditional of calls) converts
        # directly; element-wise eta-expansion would obscure the
        # architecture ("Round(S,K)" must stay "Round(S,K)", not sixteen
        # selects of it).
        if not any(node.op == "store" for node in term.iter_dag()):
            try:
                return term_to_spec(term, constants)
            except TermConversionError:
                pass
        structure = _scalar_terms(term, out_type)
        flat = []
        _flatten(structure, flat)
        bindings, exprs = terms_to_spec(flat, constants)
        body = _rebuild(structure, iter(exprs))
        return wrap_lets(bindings, body)
    return term_to_spec(term, constants)


def extract_specification(typed: TypedPackage) -> ExtractionResult:
    """Extract the full specification theory from an analyzed package."""
    decls: List[s.SDecl] = []
    constants = frozenset(typed.constants)
    for d in typed.package.decls:
        if isinstance(d, (ast.ModTypeDecl, ast.RangeTypeDecl,
                          ast.SubtypeDecl, ast.ArrayTypeDecl)):
            decls.append(s.TypeDef(name=d.name,
                                   definition=map_type(typed.types[d.name])))
        elif isinstance(d, ast.ConstDecl):
            ctype, cval = typed.constants[d.name]
            if isinstance(ctype, ArrayType):
                decls.append(s.ConstDef(name=d.name, type=map_type(ctype),
                                        value=s.TableLit(values=tuple(cval))))
            else:
                decls.append(s.ConstDef(name=d.name, type=map_type(ctype),
                                        value=s.Num(value=cval)))
    skipped: Dict[str, str] = {}
    for sp in typed.package.subprograms:
        signature = _function_signature(typed, sp)
        if signature is None:
            skipped[sp.name] = "no single-output functional reading"
            continue
        params, rtype = signature
        executor = _ArchitecturalExecutor(typed)
        try:
            summary = executor.execute(sp.name)
        except UnsupportedProgram as exc:
            skipped[sp.name] = f"not summarizable: {exc}"
            continue
        if sp.is_function:
            out_term = summary.outputs["Result"]
            out_type = typed.type_named(sp.return_type)
        else:
            out_name = next(p.name for p in sp.params if p.mode != "in")
            out_term = summary.outputs[out_name]
            out_type = typed.type_named(
                next(p.type_name for p in sp.params if p.mode != "in"))
        try:
            body = _output_to_spec(out_term, out_type, constants)
        except TermConversionError as exc:
            skipped[sp.name] = f"conversion failed: {exc}"
            continue
        decls.append(s.FunDef(name=sp.name, params=params,
                              return_type=map_type(out_type), body=body))
    theory = s.Theory(name=typed.package.name, decls=tuple(decls))
    return ExtractionResult(theory=theory, skipped=skipped)
