"""Weakest-precondition verification-condition generation for MiniAda.

The calculus is the SPADE/SPARK one: backward substitution through
statements, with *cut points* at loop heads and at ``--# assert``
statements.  Cut points are what make verification of rolled loops
tractable -- and their absence is what makes unrolled code explode, which
is the phenomenon at the heart of the paper (figure 2(c)/(d)).

Obligations are threaded as a list of ``(kind, term)`` pairs so the
examiner can report VC counts and kinds per subprogram; kinds are the ones
the defect experiment (section 7) distinguishes: exception-freedom checks
(``index``/``div``/``range``), ``precondition``, ``assert``/``invariant``
cuts, and ``post``.

Design restrictions (documented, enforced):

* loop bounds may not depend on variables the loop body modifies (Ada
  evaluates bounds once at entry; MiniAda code must make that snapshot
  explicit);
* ``return`` is supported anywhere control ends (early returns in branch
  arms, as the optimized AES key expansion uses).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..lang import ast
from ..lang.typecheck import TypedPackage
from ..lang.types import ArrayType, ModularType, Type
from ..logic import (
    Term, conj, eq, forall, implies, intc, le, lt, mk, neg, select, store,
    substitute, var,
)
from .resources import ResourceMeter
from .translate import Check, TranslationContext, translate_expr, type_bounds

__all__ = ["Obligation", "WPError", "generate_obligations"]


class WPError(Exception):
    """A program shape the WP calculus does not support."""


@dataclass(frozen=True)
class Obligation:
    kind: str
    term: Term


class _WP:
    def __init__(self, typed: TypedPackage, sp: ast.Subprogram,
                 meter: Optional[ResourceMeter] = None):
        self.typed = typed
        self.sp = sp
        self.ctx = typed.context(sp.name).runtime_view()
        self.meter = meter
        self._fresh = itertools.count(1)

    # -- helpers ---------------------------------------------------------

    def fresh(self, name: str) -> Term:
        return var(f"{name}%{next(self._fresh)}")

    def tc(self) -> TranslationContext:
        return TranslationContext(typed=self.typed, ctx=self.ctx)

    def translate(self, expr: ast.Expr) -> Tuple[Term, List[Check]]:
        tc = self.tc()
        term = translate_expr(tc, expr)
        return term, tc.checks

    def subst_all(self, obls: List[Obligation],
                  mapping: Dict[str, Term]) -> List[Obligation]:
        """Parallel substitution into every obligation.

        The obligations are bundled into a single throwaway term so one DAG
        walk serves the whole list -- substituting each obligation separately
        would re-walk shared structure per obligation and be quadratic on
        straight-line code."""
        if not mapping or not obls:
            return obls
        bundle = mk("oblist", tuple(o.term for o in obls))
        new_bundle = substitute(bundle, mapping)
        if new_bundle is bundle:
            return obls
        return [Obligation(o.kind, t)
                for o, t in zip(obls, new_bundle.args)]

    def guard_all(self, obls: List[Obligation], hyp: Term) -> List[Obligation]:
        if hyp.is_true:
            return obls
        return [Obligation(o.kind, implies(hyp, o.term)) for o in obls]

    def checks_to_obls(self, checks: Sequence[Check]) -> List[Obligation]:
        return [Obligation(c.kind, c.condition) for c in checks]

    # -- modified-variable analysis ------------------------------------------

    def modified_vars(self, stmts: Sequence[ast.Stmt]) -> set:
        """Worklist walk (no recursion): nesting depth of generated code is
        unbounded in principle, and only a set is accumulated."""
        out = set()
        work = list(stmts)
        while work:
            stmt = work.pop()
            if isinstance(stmt, ast.Assign):
                out.add(_root_name(stmt.target))
            elif isinstance(stmt, ast.If):
                for _, body in stmt.branches:
                    work.extend(body)
                work.extend(stmt.else_body)
            elif isinstance(stmt, (ast.For, ast.While)):
                if isinstance(stmt, ast.For):
                    out.add(stmt.var)
                work.extend(stmt.body)
            elif isinstance(stmt, ast.ProcCall):
                callee = self.typed.signatures[stmt.name]
                for arg, param in zip(stmt.args, callee.params):
                    if param.mode != "in":
                        out.add(_root_name(arg))
        return out

    # -- statement WP ----------------------------------------------------------

    def wp_stmts(self, stmts: Sequence[ast.Stmt],
                 obls: List[Obligation],
                 post_obls: List[Obligation]) -> List[Obligation]:
        """Backward pass.  ``obls`` is what must hold after the sequence;
        ``post_obls`` is the subprogram postcondition (target of returns)."""
        # Split off leading asserts only at loop heads; here process plain.
        result = obls
        for stmt in reversed(list(stmts)):
            result = self.wp_stmt(stmt, result, post_obls)
            if self.meter is not None:
                self.meter.charge(result)
        return result

    def wp_stmt(self, stmt: ast.Stmt, obls: List[Obligation],
                post_obls: List[Obligation]) -> List[Obligation]:
        if isinstance(stmt, ast.Assign):
            return self.wp_assign(stmt, obls)
        if isinstance(stmt, ast.Null):
            return obls
        if isinstance(stmt, ast.Return):
            if post_obls is None:
                raise WPError(
                    f"{self.sp.name}: 'return' inside a loop is not supported "
                    f"by the WP calculus (restructure the loop)")
            return self.wp_return(stmt, post_obls)
        if isinstance(stmt, ast.Assert):
            return self.wp_cut(stmt, obls)
        if isinstance(stmt, ast.If):
            return self.wp_if(stmt, obls, post_obls)
        if isinstance(stmt, ast.ProcCall):
            return self.wp_proccall(stmt, obls)
        if isinstance(stmt, ast.For):
            return self.wp_for(stmt, obls)
        if isinstance(stmt, ast.While):
            return self.wp_while(stmt, obls)
        raise WPError(f"unsupported statement {type(stmt).__name__}")

    def wp_assign(self, stmt: ast.Assign, obls: List[Obligation]):
        tc = self.tc()
        value = translate_expr(tc, stmt.value)
        target_type = self.ctx.infer(stmt.target)
        self._maybe_range_check(tc, value, target_type, stmt.value)
        if isinstance(stmt.target, ast.Name):
            mapping = {stmt.target.id: value}
        else:
            name, new_value = self._store_term(tc, stmt.target, value)
            mapping = {name: new_value}
        return self.checks_to_obls(tc.checks) + self.subst_all(obls, mapping)

    def _maybe_range_check(self, tc: TranslationContext, value: Term,
                           target_type: Type, value_expr: ast.Expr):
        bounds = type_bounds(target_type)
        if bounds is None or isinstance(target_type, ModularType):
            # Modular arithmetic wraps; no range check needed when the value
            # expression already has the target's modular type.
            if bounds is None:
                return
            value_type = self.ctx.infer(value_expr)
            if isinstance(value_type, ModularType):
                return
        else:
            value_type = self.ctx.infer(value_expr)
            vb = type_bounds(value_type)
            if vb is not None and bounds[0] <= vb[0] and vb[1] <= bounds[1]:
                return
        tc.check("range", conj(le(intc(bounds[0]), value),
                               le(value, intc(bounds[1]))))

    def _store_term(self, tc: TranslationContext, target: ast.ArrayRef,
                    value: Term) -> Tuple[str, Term]:
        """Build the store-chain for a (possibly nested) array target.
        Returns (root variable name, its new whole-array value)."""
        base_t = self.ctx.infer(target.base)
        index = translate_expr(tc, target.index)
        tc.check("index", conj(le(intc(base_t.lo), index),
                               le(index, intc(base_t.hi))))
        if base_t.lo == 0:
            offset = index
        else:
            from ..logic import sub as _sub
            offset = _sub(index, intc(base_t.lo))
        if isinstance(target.base, ast.Name):
            old = var(target.base.id)
            return target.base.id, store(old, offset, value)
        inner_old = translate_expr(tc, target.base)
        new_inner = store(inner_old, offset, value)
        return self._store_term(tc, target.base, new_inner)

    def wp_return(self, stmt: ast.Return, post_obls: List[Obligation]):
        if stmt.value is None:
            return list(post_obls)
        tc = self.tc()
        value = translate_expr(tc, stmt.value)
        rt = self.typed.type_named(self.sp.return_type)
        self._maybe_range_check(tc, value, rt, stmt.value)
        mapping = {"Result": value}
        return self.checks_to_obls(tc.checks) + \
            self.subst_all(post_obls, mapping)

    def wp_cut(self, stmt: ast.Assert, obls: List[Obligation]):
        """Straight-line cut point: prove the assertion here, then forget
        everything except the assertion for the continuation."""
        assertion, checks = self.translate(stmt.expr)
        all_vars = self._all_program_vars()
        mapping = {name: self.fresh(name) for name in all_vars}
        continuation = self.guard_all(
            self.subst_all(obls, mapping), substitute(assertion, mapping))
        return (self.checks_to_obls(checks)
                + [Obligation("assert", assertion)]
                + continuation)

    def _all_program_vars(self) -> List[str]:
        names = [p.name for p in self.sp.params]
        names += [d.name for d in self.sp.decls]
        names += list(self.ctx._loop_vars)
        return names

    def wp_if(self, stmt: ast.If, obls, post_obls):
        result: List[Obligation] = []
        not_taken = None  # conjunction of negated earlier conditions
        cond_checks: List[Obligation] = []
        for cond_expr, body in stmt.branches:
            cond, checks = self.translate(cond_expr)
            guard_context = not_taken if not_taken is not None else None
            checks_obls = self.checks_to_obls(checks)
            if guard_context is not None:
                checks_obls = self.guard_all(checks_obls, guard_context)
            cond_checks.extend(checks_obls)
            path = conj(not_taken, cond) if not_taken is not None else cond
            branch_obls = self.wp_stmts(body, obls, post_obls)
            result.extend(self.guard_all(branch_obls, path))
            not_taken = conj(not_taken, neg(cond)) if not_taken is not None \
                else neg(cond)
        else_obls = self.wp_stmts(stmt.else_body, obls, post_obls)
        result.extend(self.guard_all(else_obls, not_taken))
        return cond_checks + result

    def wp_proccall(self, stmt: ast.ProcCall, obls):
        callee = self.typed.signatures[stmt.name]
        callee_ctx = self.typed.context(callee.name)
        tc = self.tc()
        in_values: Dict[str, Term] = {}
        for arg, param in zip(stmt.args, callee.params):
            if param.mode != "out":
                in_values[param.name] = translate_expr(tc, arg)
        # Precondition VCs at the call site.
        pre_obls: List[Obligation] = []
        for pre in callee.pre:
            pre_tc = TranslationContext(
                typed=self.typed, ctx=callee_ctx, state=dict(in_values))
            pre_term = translate_expr(pre_tc, pre)
            pre_obls.extend(self.checks_to_obls(pre_tc.checks))
            pre_obls.append(Obligation("precondition", pre_term))
        # Havoc the out/in-out arguments, assume the callee postcondition.
        fresh_outs: Dict[str, Term] = {}
        caller_mapping: Dict[str, Term] = {}
        for arg, param in zip(stmt.args, callee.params):
            if param.mode == "in":
                continue
            root = _root_name(arg)
            fresh_value = self.fresh(f"{root}.{param.name}")
            fresh_outs[param.name] = fresh_value
            if isinstance(arg, ast.Name):
                caller_mapping[arg.id] = fresh_value
            else:
                _, new_root = self._store_term(tc, arg, fresh_value)
                caller_mapping[root] = new_root
        post_state = dict(in_values)
        post_state.update(fresh_outs)
        # In the callee post, X~ refers to the in-value of an in-out param.
        old_state = {f"{p.name}@old": in_values[p.name]
                     for p in callee.params if p.mode == "in out"}
        post_terms = []
        for post in callee.post:
            post_tc = TranslationContext(
                typed=self.typed, ctx=callee_ctx, state=post_state)
            term = translate_expr(post_tc, post)
            term = substitute(term, {k: v for k, v in old_state.items()})
            post_terms.append(term)
        # Out values respect their declared types.
        for param in callee.params:
            if param.mode == "in":
                continue
            fact = self._type_fact(fresh_outs[param.name],
                                   self.typed.type_named(param.type_name))
            if fact is not None:
                post_terms.append(fact)
        assumption = conj(*post_terms) if post_terms else None
        after = self.subst_all(obls, caller_mapping)
        if assumption is not None:
            after = self.guard_all(after, assumption)
        return self.checks_to_obls(tc.checks) + pre_obls + after

    # -- loops ----------------------------------------------------------------

    def _loop_invariant_split(self, body: Sequence[ast.Stmt]):
        invariants = []
        rest = list(body)
        while rest and isinstance(rest[0], ast.Assert):
            invariants.append(rest[0].expr)
            rest = rest[1:]
        return invariants, tuple(rest)

    def wp_for(self, stmt: ast.For, obls):
        tc = self.tc()
        lo0 = translate_expr(tc, stmt.lo)
        hi0 = translate_expr(tc, stmt.hi)
        bound_checks = self.checks_to_obls(tc.checks)
        modified = self.modified_vars(stmt.body)
        modified.add(stmt.var)
        bound_deps = lo0.free_vars() | hi0.free_vars()
        if bound_deps & modified:
            raise WPError(
                f"{self.sp.name}: loop bounds depend on variables the body "
                f"modifies ({sorted(bound_deps & modified)})")

        self.ctx.push_loop_var(stmt.var)
        try:
            invariant_exprs, body = self._loop_invariant_split(stmt.body)
            inv_terms = []
            inv_checks: List[Obligation] = []
            for e in invariant_exprs:
                term, checks = self.translate(e)
                inv_checks.extend(self.checks_to_obls(checks))
                inv_terms.append(term)
            i = var(stmt.var)
            counter_range = conj(le(lo0, i), le(i, hi0))
            # Invariant-expression checks hold in every head state: guard
            # with the counter range and include them in the freshened
            # arbitrary-iteration group below.
            inv_checks = self.guard_all(inv_checks, counter_range)
            j_user = conj(*inv_terms) if inv_terms else None
            j_full = conj(counter_range, j_user) if j_user is not None \
                else counter_range

            if not stmt.reverse:
                first, last, step = lo0, hi0, 1
            else:
                first, last, step = hi0, lo0, -1

            # Entry path: invariant holds for the first iteration.
            entry = implies(le(lo0, hi0),
                            substitute(j_full, {stmt.var: first}))
            entry_obl = [Obligation("invariant", entry)]

            # Iterate path: invariant is preserved (i not yet at the last
            # value).  Exit path: the last iteration establishes what follows.
            if step == 1:
                more = lt(i, last)
                next_i = _inc(i)
            else:
                more = lt(last, i)
                next_i = _dec(i)
            inv_next = substitute(j_full, {stmt.var: next_i})
            iter_obls = self.wp_stmts(
                body, [Obligation("invariant", inv_next)], post_obls=None)
            iter_obls = self.guard_all(iter_obls, conj(j_full, more))
            exit_obls = self.wp_stmts(body, obls, post_obls=None)
            exit_obls = self.guard_all(exit_obls, conj(j_full, eq(i, last)))

            # Freshen the arbitrary-iteration variables in all closed paths.
            mapping = {name: self.fresh(name) for name in sorted(modified)}
            iter_obls = self.subst_all(inv_checks + iter_obls, mapping)
            exit_obls = self.subst_all(exit_obls, mapping)

            # Empty path: the loop never runs.
            empty_obls = self.guard_all(obls, lt(hi0, lo0))

            return bound_checks + entry_obl + iter_obls + exit_obls + empty_obls
        finally:
            self.ctx.pop_loop_var()

    def wp_while(self, stmt: ast.While, obls):
        invariant_exprs, body = self._loop_invariant_split(stmt.body)
        tc = self.tc()
        cond = translate_expr(tc, stmt.cond)
        head_checks = self.checks_to_obls(tc.checks)
        inv_terms = []
        for e in invariant_exprs:
            term, checks = self.translate(e)
            head_checks.extend(self.checks_to_obls(checks))
            inv_terms.append(term)
        j_full = conj(*inv_terms) if inv_terms else conj()
        modified = self.modified_vars(stmt.body)

        entry_obl = [Obligation("invariant", j_full)] if inv_terms else []
        # Condition/invariant checks hold at every loop head, where only the
        # invariant is known; they are freshened with the head state.
        head_checks = self.guard_all(head_checks, j_full)
        iter_obls = self.wp_stmts(
            body, [Obligation("invariant", j_full)] if inv_terms else [],
            post_obls=None)
        iter_obls = self.guard_all(iter_obls, conj(j_full, cond))
        exit_obls = self.guard_all(obls, conj(j_full, neg(cond)))
        mapping = {name: self.fresh(name) for name in sorted(modified)}
        iter_obls = self.subst_all(head_checks + iter_obls, mapping)
        exit_obls = self.subst_all(exit_obls, mapping)
        return entry_obl + iter_obls + exit_obls

    # -- type facts -----------------------------------------------------------

    def _type_fact(self, term: Term, t: Type) -> Optional[Term]:
        bounds = type_bounds(t)
        if bounds is not None:
            return conj(le(intc(bounds[0]), term), le(term, intc(bounds[1])))
        if isinstance(t, ArrayType):
            elem_bounds = type_bounds(t.elem)
            if isinstance(t.elem, ArrayType):
                inner = self._type_fact(
                    select(term, var("k?")), t.elem)
                if inner is None:
                    return None
                return forall(
                    ["k?"],
                    implies(conj(le(intc(0), var("k?")),
                                 le(var("k?"), intc(t.hi - t.lo))), inner))
            if elem_bounds is None:
                return None
            k = var("k?")
            body = conj(le(intc(elem_bounds[0]), select(term, k)),
                        le(select(term, k), intc(elem_bounds[1])))
            return forall(
                ["k?"],
                implies(conj(le(intc(0), k), le(k, intc(t.hi - t.lo))), body))
        return None


def _root_name(expr: ast.Expr) -> str:
    while isinstance(expr, ast.ArrayRef):
        expr = expr.base
    if isinstance(expr, ast.Name):
        return expr.id
    raise WPError("cannot determine assignment root")


def _inc(term: Term) -> Term:
    from ..logic import add
    return add(term, intc(1))


def _dec(term: Term) -> Term:
    from ..logic import sub
    return sub(term, intc(1))


def generate_obligations(typed: TypedPackage, sp: ast.Subprogram,
                         meter: Optional[ResourceMeter] = None
                         ) -> List[Obligation]:
    """All proof obligations for ``sp``: exception freedom, cut points, and
    the postcondition, each as ``hypotheses -> conclusion`` over entry-state
    variables, guarded by the precondition and parameter type facts."""
    engine = _WP(typed, sp, meter)

    # Postcondition obligations (the backward seed).
    post_obls: List[Obligation] = []
    for post in sp.post:
        term, checks = engine.translate(post)
        post_obls.extend(engine.checks_to_obls(checks))
        post_obls.append(Obligation("post", term))
    if sp.is_function:
        rt = typed.type_named(sp.return_type)
        obls = engine.wp_stmts(sp.body, [], post_obls)
    else:
        obls = engine.wp_stmts(sp.body, post_obls, post_obls)

    # Local variable initializers run before the body.
    for decl in reversed(sp.decls):
        if decl.init is not None:
            assign = ast.Assign(target=ast.Name(id=decl.name), value=decl.init)
            obls = engine.wp_assign(assign, obls)

    # Entry: old-values equal entry values; preconditions and parameter type
    # facts become hypotheses.
    entry_mapping = {}
    for o in obls:
        for name in o.term.free_vars():
            if name.endswith("@old"):
                entry_mapping[name] = var(name[:-4])
    obls = engine.subst_all(obls, entry_mapping)

    hyps = []
    for pre in sp.pre:
        term, _ = engine.translate(pre)
        hyps.append(term)
    for p in sp.params:
        if p.mode == "out":
            continue
        fact = engine._type_fact(var(p.name), typed.type_named(p.type_name))
        if fact is not None:
            hyps.append(fact)
    context = conj(*hyps) if hyps else None
    if context is not None:
        obls = engine.guard_all(obls, context)

    # Deduplicate (identical obligations arise from shared paths).
    seen = set()
    unique: List[Obligation] = []
    for o in obls:
        if o.term.is_true:
            continue
        key = (o.kind, o.term._id)
        if key not in seen:
            seen.add(key)
            unique.append(o)
    return unique
