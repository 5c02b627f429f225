"""Forward symbolic execution of MiniAda subprograms.

Executes a subprogram over *terms* instead of values: parameters start as
logic variables, assignments fold through the smart constructors, branches
merge with ``ite``, and literal-bounded loops unroll.  The result maps each
observable output to a term over the input variables -- a closed-form
summary of the subprogram.

Uses:

* **semantics-preservation proofs** -- two subprograms whose summaries
  normalize to the same term are equivalent on all inputs
  (:mod:`repro.equiv.theorem`);
* the prover's ``expand`` tactic (definition expansion of called
  functions, exactly the "expansion of function definitions" the paper's
  interactive PVS proofs used);
* strongest-postcondition-style annotation synthesis for the defect
  experiment's setup 1 (annotations that describe the code as it is).

Programs with while-loops or dynamically bounded for-loops are not
summarizable this way; ``execute`` returns ``None`` with a reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..lang import TypedPackage, ast
from ..logic import Term, conj, disj, intc, ite, neg, select, store, var
from ..vcgen.translate import TranslationContext, translate_expr

__all__ = ["SymbolicSummary", "SymbolicExecutor", "UnsupportedProgram"]


class UnsupportedProgram(Exception):
    """The subprogram cannot be summarized symbolically."""


@dataclass
class SymbolicSummary:
    """Closed-form summary: observable name -> term over input variables."""

    subprogram: str
    outputs: Dict[str, Term]
    steps: int


class SymbolicExecutor:
    def __init__(self, typed: TypedPackage, max_steps: int = 200_000,
                 inline_depth: int = 16):
        self.typed = typed
        self.max_steps = max_steps
        self.inline_depth = inline_depth
        self.steps = 0

    # -- public ----------------------------------------------------------

    def execute(self, name: str) -> SymbolicSummary:
        """Summarize subprogram ``name``; raises UnsupportedProgram for
        shapes outside the summarizable fragment."""
        self.steps = 0
        sp = self.typed.signatures[name]
        state: Dict[str, Term] = {}
        for p in sp.params:
            if p.mode == "out":
                state[p.name] = var(f"{p.name}#uninit")
            else:
                state[p.name] = var(p.name)
        for d in sp.decls:
            state[d.name] = var(f"{d.name}#uninit")
        ctx = self.typed.context(sp.name).runtime_view()
        for d in sp.decls:
            if d.init is not None:
                state[d.name] = self._expr(d.init, state, ctx, sp)
        returned, result = self._block(sp.body, state, ctx, sp, depth=0)
        outputs: Dict[str, Term] = {}
        if sp.is_function:
            if result is None:
                raise UnsupportedProgram(f"{name}: no return value computed")
            outputs["Result"] = result
        else:
            for p in sp.params:
                if p.mode != "in":
                    outputs[p.name] = state[p.name]
        return SymbolicSummary(subprogram=name, outputs=outputs,
                               steps=self.steps)

    # -- machinery --------------------------------------------------------

    def _charge(self, n: int = 1):
        self.steps += n
        if self.steps > self.max_steps:
            raise UnsupportedProgram("symbolic step budget exceeded")

    def _expr(self, expr: ast.Expr, state, ctx, sp) -> Term:
        self._charge()
        tc = TranslationContext(typed=self.typed, ctx=ctx, state=state)
        term = translate_expr(tc, expr)
        return self._inline_calls(term, depth=0)

    def _inline_calls(self, term: Term, depth: int) -> Term:
        """Replace applications of defined functions with their symbolic
        summaries instantiated at the argument terms.

        Iterative (generator trampoline): symbolic states are store/ite
        chains whose depth grows with the number of unrolled writes, far
        past what worker-thread C stacks tolerate recursively.  A per-walk
        memo keyed on interning id collapses shared subterms, which the
        recursive formulation re-expanded per occurrence."""
        from ..logic import run_trampoline
        return run_trampoline(self._inline_calls_gen(term, depth, {}))

    def _inline_calls_gen(self, term: Term, depth: int, memo: Dict[int, Term]):
        hit = memo.get(term._id)
        if hit is not None:
            return hit
        if depth > self.inline_depth:
            return term
        sig = None
        if term.op == "apply":
            sig = self.typed.signatures.get(term.value)
        if sig is not None and sig.is_function:
            from ..logic import substitute_simplifying
            summary = self.execute_cached(term.value)
            mapping = {}
            for p, a in zip(sig.params, term.args):
                mapping[p.name] = yield self._inline_calls_gen(a, depth, memo)
            result = substitute_simplifying(summary.outputs["Result"], mapping)
        elif not term.args:
            result = term
        else:
            new_args = []
            for a in term.args:
                h = memo.get(a._id)
                if h is None:
                    h = yield self._inline_calls_gen(a, depth, memo)
                new_args.append(h)
            new_args = tuple(new_args)
            if all(n is o for n, o in zip(new_args, term.args)):
                result = term
            else:
                from ..logic import rebuild_smart
                result = rebuild_smart(term.op, new_args, term.value)
        memo[term._id] = result
        return result

    _summary_cache: Dict[Tuple[int, str], SymbolicSummary] = {}

    def execute_cached(self, name: str) -> SymbolicSummary:
        key = (id(self.typed), name)
        hit = self._summary_cache.get(key)
        if hit is None:
            saved = self.steps
            hit = self.execute(name)
            self.steps += saved
            self._summary_cache[key] = hit
        return hit

    def _block(self, stmts, state, ctx, sp, depth
               ) -> Tuple[Term, Optional[Term]]:
        """Execute statements; returns (returned-condition, result-term)."""
        from ..logic import FALSE
        returned = FALSE
        result: Optional[Term] = None
        for stmt in stmts:
            if returned.is_true:
                break
            r_cond, r_val = self._stmt(stmt, state, ctx, sp, depth, returned)
            if r_cond is not None and not r_cond.is_false:
                if result is None:
                    result = r_val
                elif r_val is not None:
                    result = ite(conj(neg(returned), r_cond), r_val, result)
                returned = disj(returned, r_cond)
        return returned, result

    def _stmt(self, stmt, state, ctx, sp, depth, already_returned
              ) -> Tuple[Optional[Term], Optional[Term]]:
        self._charge()
        if isinstance(stmt, ast.Assign):
            value = self._expr(stmt.value, state, ctx, sp)
            self._store(stmt.target, value, state, ctx, sp)
            return None, None
        if isinstance(stmt, (ast.Null, ast.Assert)):
            return None, None
        if isinstance(stmt, ast.Return):
            from ..logic import TRUE
            value = None
            if stmt.value is not None:
                value = self._expr(stmt.value, state, ctx, sp)
            return TRUE, value
        if isinstance(stmt, ast.If):
            return self._if(stmt, state, ctx, sp, depth)
        if isinstance(stmt, ast.For):
            return self._for(stmt, state, ctx, sp, depth)
        if isinstance(stmt, ast.While):
            raise UnsupportedProgram(
                f"{sp.name}: while-loops are not symbolically summarizable")
        if isinstance(stmt, ast.ProcCall):
            return self._call(stmt, state, ctx, sp, depth)
        raise UnsupportedProgram(f"unsupported {type(stmt).__name__}")

    def _store(self, target, value, state, ctx, sp):
        if isinstance(target, ast.Name):
            state[target.id] = value
            return
        if isinstance(target, ast.ArrayRef):
            chain = []
            node = target
            while isinstance(node, ast.ArrayRef):
                chain.append(node)
                node = node.base
            root = node.id
            # Rebuild nested stores from the outside in.
            current = state[root]
            stores = []
            for ref in reversed(chain):  # outermost first
                base_t = ctx.infer(ref.base)
                idx = self._expr(ref.index, state, ctx, sp)
                if base_t.lo != 0:
                    from ..logic import sub
                    idx = sub(idx, intc(base_t.lo))
                stores.append((current, idx))
                current = select(current, idx)
            new_value = value
            for arr, idx in reversed(stores):
                new_value = store(arr, idx, new_value)
            state[root] = new_value
            return
        raise UnsupportedProgram("bad assignment target")

    def _if(self, stmt: ast.If, state, ctx, sp, depth):
        from ..logic import FALSE
        conditions = []
        branch_states = []
        branch_returns = []
        not_taken = None
        for cond_expr, body in stmt.branches:
            cond = self._expr(cond_expr, state, ctx, sp)
            path = cond if not_taken is None else conj(not_taken, cond)
            not_taken = neg(cond) if not_taken is None \
                else conj(not_taken, neg(cond))
            if path.is_false:
                continue
            child = dict(state)
            r, rv = self._block(body, child, ctx, sp, depth)
            conditions.append(path)
            branch_states.append(child)
            branch_returns.append((r, rv))
            if path.is_true:
                state.clear()
                state.update(child)
                return (r, rv) if not r.is_false else (None, None)
        # Else branch.
        child = dict(state)
        r, rv = self._block(stmt.else_body, child, ctx, sp, depth)
        conditions.append(not_taken if not_taken is not None else FALSE)
        branch_states.append(child)
        branch_returns.append((r, rv))
        # Merge variables across branches.
        merged = dict(branch_states[-1])
        for cond, bstate in zip(reversed(conditions[:-1]),
                                reversed(branch_states[:-1])):
            for k in set(merged) | set(bstate):
                a = bstate.get(k)
                b = merged.get(k)
                if a is None or b is None or a is b:
                    merged[k] = a if a is not None else b
                else:
                    merged[k] = ite(cond, a, b)
        state.clear()
        state.update(merged)
        # Merge return information.
        ret_cond = FALSE
        ret_val: Optional[Term] = None
        for cond, (r, rv) in zip(reversed(conditions),
                                 reversed(branch_returns)):
            if r.is_false:
                continue
            this_cond = conj(cond, r)
            ret_cond = disj(ret_cond, this_cond)
            if rv is not None:
                ret_val = rv if ret_val is None else ite(this_cond, rv, ret_val)
        if ret_cond.is_false:
            return None, None
        return ret_cond, ret_val

    def _for(self, stmt: ast.For, state, ctx, sp, depth):
        lo = self._expr(stmt.lo, state, ctx, sp)
        hi = self._expr(stmt.hi, state, ctx, sp)
        if lo.op != "int" or hi.op != "int":
            raise UnsupportedProgram(
                f"{sp.name}: loop bounds not literal after folding")
        indices = range(lo.value, hi.value + 1)
        if stmt.reverse:
            indices = reversed(indices)
        ctx.push_loop_var(stmt.var)
        shadow = state.get(stmt.var)
        try:
            for i in indices:
                state[stmt.var] = intc(i)
                r, rv = self._block(stmt.body, state, ctx, sp, depth)
                if not r.is_false:
                    raise UnsupportedProgram(
                        f"{sp.name}: return inside a loop")
        finally:
            ctx.pop_loop_var()
            if shadow is not None:
                state[stmt.var] = shadow
            else:
                state.pop(stmt.var, None)
        return None, None

    def _call(self, stmt: ast.ProcCall, state, ctx, sp, depth):
        if depth >= self.inline_depth:
            raise UnsupportedProgram("procedure inlining depth exceeded")
        callee = self.typed.signatures[stmt.name]
        callee_ctx = self.typed.context(callee.name).runtime_view()
        callee_state: Dict[str, Term] = {}
        for arg, param in zip(stmt.args, callee.params):
            if param.mode != "out":
                callee_state[param.name] = self._expr(arg, state, ctx, sp)
            else:
                callee_state[param.name] = var(f"{param.name}#uninit")
        for d in callee.decls:
            callee_state[d.name] = var(f"{d.name}#uninit")
            if d.init is not None:
                callee_state[d.name] = self._expr(
                    d.init, callee_state, callee_ctx, callee)
        r, _ = self._block(callee.body, callee_state, callee_ctx, callee,
                           depth + 1)
        if not r.is_false and not r.is_true:
            raise UnsupportedProgram(
                f"{callee.name}: conditional procedure return")
        for arg, param in zip(stmt.args, callee.params):
            if param.mode != "in":
                self._store(arg, callee_state[param.name], state, ctx, sp)
        return None, None
