"""Type checking and TCC generation for MiniPVS theories.

Typechecking a PVS theory produces *Type Correctness Conditions*: proof
obligations that values fit their subtypes, indices stay in bounds,
divisors are nonzero, and recursions terminate (measure decreasing).  The
paper reports these numbers directly ("147 TCCs, of which 79 were
discharged automatically ... the remaining 68 were all subsumed by the
proved ones", section 6.2.4).

``check_theory`` returns the TCC list; ``discharge_tccs`` runs the
automatic prover over them and reports proved / subsumed / unproved, where
*subsumed* means the TCC's obligation term is identical (hash-consed) to an
already-proved one -- duplicate obligations arising from repeated idioms,
exactly the phenomenon the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..logic import (
    Term, band, bor, conj, divi, eq, ge, gt, implies, intc, ite, le, lt, modi,
    mul, ne, neg, add, sub, shl, shr, select, var, xor, apply, boolc,
)
from ..prover import AutoProver
from ..prover.ground import GroundEvaluator
from . import ast as s
from .eval import SpecEvalError, SpecEvaluator

__all__ = ["SpecTypeError", "TCC", "TCCReport", "SpecCheck", "check_theory",
           "discharge_tccs", "SpecGround"]


class SpecTypeError(Exception):
    pass


@dataclass(frozen=True)
class TCC:
    kind: str          # 'subrange', 'index', 'division', 'termination'
    function: str
    term: Term


@dataclass
class TCCReport:
    total: int
    proved: int
    subsumed: int
    unproved: List[TCC] = field(default_factory=list)

    @property
    def all_discharged(self) -> bool:
        return not self.unproved


@dataclass
class SpecCheck:
    theory: s.Theory
    tccs: List[TCC]
    resolved_types: Dict[str, s.SType]


def _resolve(t: s.SType, types: Dict[str, s.SType]) -> s.SType:
    seen = set()
    while isinstance(t, s.NamedType):
        if t.name in seen:
            raise SpecTypeError(f"cyclic type '{t.name}'")
        seen.add(t.name)
        if t.name not in types:
            raise SpecTypeError(f"unknown type '{t.name}'")
        t = types[t.name]
    if isinstance(t, s.ArrayTypeS):
        return s.ArrayTypeS(size=t.size, elem=_resolve(t.elem, types))
    return t


def _static_bounds(t: s.SType) -> Optional[Tuple[int, int]]:
    if isinstance(t, s.SubrangeType):
        return (0, t.hi)
    if isinstance(t, s.NatType):
        return None  # only a lower bound; handled separately
    return None


class _Checker:
    def __init__(self, theory: s.Theory):
        self.theory = theory
        self.types: Dict[str, s.SType] = {}
        self.constants: Dict[str, s.SType] = {}
        self.functions: Dict[str, s.FunDef] = {}
        self.tccs: List[TCC] = []
        self._current: Optional[s.FunDef] = None
        self._bound_counter = 0

    # -- main ----------------------------------------------------------------

    def run(self) -> SpecCheck:
        for d in self.theory.decls:
            if isinstance(d, s.TypeDef):
                if d.name in self.types:
                    raise SpecTypeError(f"duplicate type '{d.name}'")
                self.types[d.name] = d.definition
        # Resolve all types now so cycles surface early.
        resolved = {name: _resolve(t, self.types)
                    for name, t in self.types.items()}
        for d in self.theory.decls:
            if isinstance(d, s.ConstDef):
                ctype = _resolve(d.type, self.types)
                self.constants[d.name] = ctype
                self._check_const(d, ctype)
            elif isinstance(d, s.FunDef):
                if d.name in self.functions:
                    raise SpecTypeError(f"duplicate function '{d.name}'")
                self.functions[d.name] = d
        for d in self.theory.functions():
            self._check_fun(d)
        return SpecCheck(theory=self.theory, tccs=self.tccs,
                         resolved_types=resolved)

    def _check_const(self, d: s.ConstDef, ctype: s.SType):
        if isinstance(ctype, s.ArrayTypeS):
            if not isinstance(d.value, s.TableLit):
                raise SpecTypeError(f"constant {d.name}: table expected")
            if len(d.value.values) != ctype.size:
                raise SpecTypeError(
                    f"constant {d.name}: {len(d.value.values)} entries for "
                    f"array of {ctype.size}")
            bounds = _static_bounds(ctype.elem)
            if bounds is not None:
                for v in d.value.values:
                    if not bounds[0] <= v <= bounds[1]:
                        raise SpecTypeError(
                            f"constant {d.name}: entry {v} outside "
                            f"{bounds[0]} .. {bounds[1]}")
        else:
            if not isinstance(d.value, s.Num):
                raise SpecTypeError(
                    f"constant {d.name}: scalar literal expected")

    def _check_fun(self, fn: s.FunDef):
        self._current = fn
        # Bound-variable freshening restarts per function so structurally
        # identical obligations from different functions share one term --
        # that sharing is what the paper's "subsumed by the proved ones"
        # TCC accounting reflects.
        self._bound_counter = 0
        env: Dict[str, s.SType] = {}
        for pname, ptype in fn.params:
            env[pname] = _resolve(ptype, self.types)
        state = {pname: var(pname) for pname, _ in fn.params}
        entry = self._param_facts(env)
        body_type, body_term = self._walk(
            fn.body, env, state, path=entry, fn=fn)
        rtype = _resolve(fn.return_type, self.types)
        self._subtype_tcc(body_term, body_type, rtype, entry, fn,
                          context="result")
        if fn.recursive and fn.measure is None:
            raise SpecTypeError(
                f"recursive function {fn.name} needs a MEASURE")
        self._current = None

    # -- expression walking (typing + TCC collection) -----------------------

    def _param_facts(self, env: Dict[str, s.SType]) -> Term:
        """Entry path condition: declared parameter bounds."""
        facts = []
        for pname, ptype in env.items():
            if isinstance(ptype, s.SubrangeType):
                facts.append(conj(le(intc(0), var(pname)),
                                  le(var(pname), intc(ptype.hi))))
            elif isinstance(ptype, s.NatType):
                facts.append(le(intc(0), var(pname)))
        return conj(*facts)

    def _fresh_bound(self, base: str) -> str:
        self._bound_counter += 1
        return f"{base}${self._bound_counter}"

    def _walk(self, e: s.SExpr, env: Dict[str, s.SType],
              state: Dict[str, Term], path: Term, fn: s.FunDef
              ) -> Tuple[s.SType, Term]:
        if isinstance(e, s.Num):
            if e.value < 0:
                raise SpecTypeError("negative literal in a NAT context")
            return s.SubrangeType(hi=e.value), intc(e.value)
        if isinstance(e, s.BoolConst):
            return s.BoolType(), boolc(e.value)
        if isinstance(e, s.Var):
            if e.name in env:
                return env[e.name], state.get(e.name, var(e.name))
            if e.name in self.constants:
                return self.constants[e.name], var(e.name)
            raise SpecTypeError(f"{fn.name}: unbound name '{e.name}'")
        if isinstance(e, s.Index):
            return self._walk_index(e, env, state, path, fn)
        if isinstance(e, s.IfExpr):
            ctype, cterm = self._walk(e.cond, env, state, path, fn)
            if not isinstance(ctype, s.BoolType):
                raise SpecTypeError(f"{fn.name}: IF condition not BOOL")
            ttype, tterm = self._walk(e.then, env, state,
                                      conj(path, cterm), fn)
            etype, eterm = self._walk(e.orelse, env, state,
                                      conj(path, neg(cterm)), fn)
            return _join(ttype, etype), ite(cterm, tterm, eterm)
        if isinstance(e, s.Let):
            vtype, vterm = self._walk(e.value, env, state, path, fn)
            inner_env = dict(env)
            inner_env[e.var] = vtype
            inner_state = dict(state)
            inner_state[e.var] = vterm
            return self._walk(e.body, inner_env, inner_state, path, fn)
        if isinstance(e, s.Build):
            bound = self._fresh_bound(e.var)
            inner_env = dict(env)
            inner_env[e.var] = s.SubrangeType(hi=e.size - 1)
            inner_state = dict(state)
            inner_state[e.var] = var(bound)
            guard = conj(le(intc(0), var(bound)),
                         le(var(bound), intc(e.size - 1)))
            etype, _ = self._walk(e.body, inner_env, inner_state,
                                  conj(path, guard), fn)
            # The built array itself is opaque to TCC terms.
            return s.ArrayTypeS(size=e.size, elem=etype), \
                var(f"#build{self._bound_counter}")
        if isinstance(e, s.TableLit):
            hi = max(e.values) if e.values else 0
            return s.ArrayTypeS(size=len(e.values),
                                elem=s.SubrangeType(hi=hi)), \
                var(f"#table{self._bound_counter}")
        if isinstance(e, s.ArrayLit):
            infos = [self._walk(item, env, state, path, fn)
                     for item in e.items]
            elem = infos[0][0]
            for itype, _ in infos[1:]:
                elem = _join(elem, itype)
            self._bound_counter += 1
            return s.ArrayTypeS(size=len(e.items), elem=elem), \
                var(f"#arraylit{self._bound_counter}")
        if isinstance(e, s.Bin):
            return self._walk_bin(e, env, state, path, fn)
        if isinstance(e, s.Call):
            return self._walk_call(e, env, state, path, fn)
        raise SpecTypeError(f"cannot check {type(e).__name__}")

    def _walk_index(self, e, env, state, path, fn):
        atype, aterm = self._walk(e.array, env, state, path, fn)
        itype, iterm = self._walk(e.index, env, state, path, fn)
        if not isinstance(atype, s.ArrayTypeS):
            raise SpecTypeError(f"{fn.name}: indexing a non-array")
        condition = conj(le(intc(0), iterm),
                         le(iterm, intc(atype.size - 1)))
        self._tcc("index", implies(path, condition), fn)
        if isinstance(e.array, s.Var) and e.array.name in self.constants:
            return atype.elem, apply(e.array.name, iterm)
        return atype.elem, select(aterm, iterm)

    def _walk_bin(self, e, env, state, path, fn):
        ltype, lterm = self._walk(e.left, env, state, path, fn)
        rtype, rterm = self._walk(e.right, env, state, path, fn)
        op = e.op
        if op in ("+", "-", "*", "DIV", "MOD"):
            if op == "+":
                term = add(lterm, rterm)
            elif op == "-":
                term = sub(lterm, rterm)
            elif op == "*":
                term = mul(lterm, rterm)
            elif op == "DIV":
                self._tcc("division", implies(path, ne(rterm, intc(0))), fn)
                term = divi(lterm, rterm)
            else:
                self._tcc("division", implies(path, ne(rterm, intc(0))), fn)
                term = modi(lterm, rterm)
            if op == "-":
                # NAT is closed under the other operators but not under
                # subtraction: emit a nonnegativity TCC unless static.
                self._tcc("subrange",
                          implies(path, le(intc(0), term)), fn)
            return _arith_result(ltype, rtype, op), term
        if op in ("=", "/="):
            term = eq(lterm, rterm)
            return s.BoolType(), term if op == "=" else neg(term)
        if op == "<":
            return s.BoolType(), lt(lterm, rterm)
        if op == "<=":
            return s.BoolType(), le(lterm, rterm)
        if op == ">":
            return s.BoolType(), gt(lterm, rterm)
        if op == ">=":
            return s.BoolType(), ge(lterm, rterm)
        if op in ("AND", "OR"):
            if not (isinstance(ltype, s.BoolType)
                    and isinstance(rtype, s.BoolType)):
                raise SpecTypeError(f"{fn.name}: '{op}' needs BOOL operands")
            combine = conj if op == "AND" else _disj
            return s.BoolType(), combine(lterm, rterm)
        raise SpecTypeError(f"unknown operator {op}")

    def _walk_call(self, e, env, state, path, fn):
        arg_info = [self._walk(a, env, state, path, fn) for a in e.args]
        terms = [t for _, t in arg_info]
        if e.fn in ("XOR", "BITAND", "BITOR"):
            op = {"XOR": xor, "BITAND": band, "BITOR": bor}[e.fn]
            hi = 0
            for atype, _ in arg_info:
                bounds = _static_bounds(atype)
                if bounds is None:
                    hi = None
                    break
                hi = max(hi, bounds[1])
            result = s.SubrangeType(hi=_mask(hi)) if hi is not None \
                else s.NatType()
            return result, op(*terms)
        if e.fn == "SHL":
            return s.NatType(), shl(terms[0], terms[1])
        if e.fn == "SHR":
            atype = arg_info[0][0]
            return (atype if isinstance(atype, s.SubrangeType)
                    else s.NatType()), shr(terms[0], terms[1])
        if e.fn == "NOT":
            return s.BoolType(), neg(terms[0])
        callee = self.functions.get(e.fn)
        if callee is None:
            raise SpecTypeError(f"{fn.name}: unknown function '{e.fn}'")
        if len(e.args) != len(callee.params):
            raise SpecTypeError(f"{fn.name}: call to {e.fn} arity mismatch")
        for (atype, aterm), (pname, ptype) in zip(arg_info, callee.params):
            target = _resolve(ptype, self.types)
            self._subtype_tcc(aterm, atype, target, path, fn,
                              context=f"argument {pname} of {e.fn}")
        if e.fn == fn.name:
            # Recursion: termination TCC (measure decreasing).
            if fn.measure is None:
                raise SpecTypeError(
                    f"{fn.name} is recursive; mark it REC with a MEASURE")
            mapping = {pname: aterm
                       for (pname, _), (_, aterm)
                       in zip(callee.params, arg_info)}
            _, m_now = self._walk(fn.measure, env, state, path, fn)
            m_next_type, m_next = self._walk(
                fn.measure,
                {pname: atype for (pname, _), (atype, _)
                 in zip(callee.params, arg_info)},
                mapping, path, fn)
            self._tcc("termination",
                      implies(path, lt(m_next, m_now)), fn)
        rtype = _resolve(callee.return_type, self.types)
        return rtype, apply(e.fn, *terms)

    # -- TCC helpers ----------------------------------------------------------

    def _tcc(self, kind: str, term: Term, fn: s.FunDef):
        if term.is_true:
            return
        self.tccs.append(TCC(kind=kind, function=fn.name, term=term))

    def _subtype_tcc(self, term: Term, actual: s.SType, target: s.SType,
                     path: Term, fn: s.FunDef, context: str):
        if isinstance(target, s.ArrayTypeS):
            if not isinstance(actual, s.ArrayTypeS) or \
                    actual.size != target.size:
                raise SpecTypeError(
                    f"{fn.name}: array type mismatch at {context}")
            # Element subtyping is enforced where elements are produced.
            return
        if isinstance(target, s.BoolType):
            if not isinstance(actual, s.BoolType):
                raise SpecTypeError(f"{fn.name}: BOOL expected at {context}")
            return
        target_bounds = _static_bounds(target)
        actual_bounds = _static_bounds(actual)
        if target_bounds is None:
            return  # NAT accepts any nat-sorted value
        if actual_bounds is not None and \
                actual_bounds[1] <= target_bounds[1]:
            return  # statically evident
        self._tcc("subrange",
                  implies(path, conj(le(intc(0), term),
                                     le(term, intc(target_bounds[1])))),
                  fn)


def _disj(a, b):
    from ..logic import disj
    return disj(a, b)


def _arith_result(ltype: s.SType, rtype: s.SType, op: str) -> s.SType:
    """Result type of a NAT arithmetic operator, tightened when static."""
    lb, rb = _static_bounds(ltype), _static_bounds(rtype)
    if op == "MOD" and rb is not None:
        return s.SubrangeType(hi=max(rb[1] - 1, 0))
    if lb is not None and rb is not None:
        if op == "+":
            return s.SubrangeType(hi=lb[1] + rb[1])
        if op == "*":
            return s.SubrangeType(hi=lb[1] * rb[1])
        if op in ("-", "DIV"):
            return s.SubrangeType(hi=lb[1])
    return s.NatType()


def _mask(n: int) -> int:
    if n <= 0:
        return 0
    return (1 << n.bit_length()) - 1


def _join(a: s.SType, b: s.SType) -> s.SType:
    if isinstance(a, s.SubrangeType) and isinstance(b, s.SubrangeType):
        return s.SubrangeType(hi=max(a.hi, b.hi))
    if isinstance(a, s.ArrayTypeS) and isinstance(b, s.ArrayTypeS) and \
            a.size == b.size:
        return s.ArrayTypeS(size=a.size, elem=_join(a.elem, b.elem))
    if type(a) is type(b):
        return a
    if isinstance(a, (s.NatType, s.SubrangeType)) and \
            isinstance(b, (s.NatType, s.SubrangeType)):
        return s.NatType()
    raise SpecTypeError(f"incompatible branch types {a!r} / {b!r}")


def check_theory(theory: s.Theory) -> SpecCheck:
    """Type-check ``theory``; returns the check result with its TCCs.
    Raises :class:`SpecTypeError` on outright type errors."""
    return _Checker(theory).run()


class SpecGround(GroundEvaluator):
    """Ground evaluation over a theory: tables and defined functions are
    evaluated through the spec evaluator."""

    def __init__(self, theory: s.Theory):
        super().__init__(None)
        self._spec = SpecEvaluator(theory)
        self._tables = {d.name: self._spec.constant(d.name)
                        for d in theory.constants()}
        self._theory = theory

    def _eval_apply(self, term, args):
        table = self._tables.get(term.value)
        if table is not None and len(args) == 1 and \
                isinstance(args[0], int) and 0 <= args[0] < len(table):
            return table[args[0]]
        try:
            return self._spec.call(term.value, args)
        except SpecEvalError:
            return None

    def evaluate(self, term):
        # Resolve bare table references too.
        if term.op == "var" and term.value in self._tables:
            return self._tables[term.value]
        return super().evaluate(term)


class _SpecBoundHook:
    """Type-derived bounds for spec TCC terms: parameter scalars, array
    parameter elements, table entries, and function results."""

    def __init__(self, checker: "_Checker"):
        self._scalars: Dict[str, Optional[Tuple[int, int]]] = {}
        self._elems: Dict[str, Optional[Tuple[int, int]]] = {}
        for fn in checker.functions.values():
            for pname, ptype in fn.params:
                t = _resolve(ptype, checker.types)
                if isinstance(t, s.ArrayTypeS):
                    self._note(self._elems, pname, _static_bounds(t.elem))
                else:
                    self._note(self._scalars, pname, _static_bounds(t))
        self._returns: Dict[str, Optional[Tuple[int, int]]] = {}
        self._return_elems: Dict[str, Optional[Tuple[int, int]]] = {}
        for fn in checker.functions.values():
            rt = _resolve(fn.return_type, checker.types)
            if isinstance(rt, s.ArrayTypeS):
                self._return_elems[fn.name] = _static_bounds(rt.elem)
            else:
                self._returns[fn.name] = _static_bounds(rt)
        for name, ctype in checker.constants.items():
            if isinstance(ctype, s.ArrayTypeS):
                self._returns[name] = _static_bounds(ctype.elem)

    @staticmethod
    def _note(table, name, bounds):
        if name in table and table[name] != bounds:
            table[name] = None  # conflicting declarations: no information
        else:
            table[name] = bounds

    def __call__(self, term: Term) -> Optional[Tuple[int, int]]:
        if term.op == "var":
            base = str(term.value).split("$")[0]
            return self._scalars.get(base)
        if term.op == "apply":
            return self._returns.get(term.value)
        if term.op == "select":
            root = term.args[0]
            while root.op in ("store", "select"):
                root = root.args[0]
            if root.op == "var":
                base = str(root.value).split("$")[0]
                return self._elems.get(base)
            if term.args[0].op == "apply":
                return self._return_elems.get(term.args[0].value)
        return None


def discharge_tccs(theory: s.Theory, tccs: List[TCC]) -> TCCReport:
    """Run the automatic prover over the TCCs.  Duplicate obligations
    (same hash-consed term as an already-processed TCC) are counted as
    *subsumed*, mirroring the paper's TCC accounting."""
    check = _Checker(theory)
    check.run()
    extra = []
    from ..prover import Axiom
    for fn in theory.functions():
        rtype = _resolve(fn.return_type, check.types)
        bounds = _static_bounds(rtype)
        if bounds is None:
            continue
        params = tuple(p for p, _ in fn.params)
        call = apply(fn.name, *(var(p) for p in params))
        extra.append(Axiom(
            name=f"{fn.name}.range", bound=params,
            body=conj(le(intc(0), call), le(call, intc(bounds[1])))))
    prover = AutoProver(ground=SpecGround(theory), extra_axioms=extra,
                        hook=_SpecBoundHook(check))
    proved = 0
    subsumed = 0
    unproved: List[TCC] = []
    outcome_by_term: Dict[int, bool] = {}
    for tcc in tccs:
        known = outcome_by_term.get(tcc.term._id)
        if known is not None:
            subsumed += 1
            if not known:
                unproved.append(tcc)
            continue
        result = prover.prove(tcc.term)
        outcome_by_term[tcc.term._id] = result.proved
        if result.proved:
            proved += 1
        else:
            unproved.append(tcc)
    return TCCReport(total=len(tccs), proved=proved, subsumed=subsumed,
                     unproved=unproved)
