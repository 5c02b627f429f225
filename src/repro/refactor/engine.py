"""The transformation engine (Stratego/XT substitute) and its process loop.

A :class:`Transformation` checks applicability mechanically and applies
itself mechanically; the :class:`RefactoringEngine` wraps application with

* re-analysis (type checking) of the transformed package,
* a semantics-preservation theorem per application (section 5.1), checked
  on the engine's *observable* subprograms -- the package interface whose
  behaviour refactoring must preserve,
* a history of snapshots (the paper: "removing a transformation is made
  possible by recording the software's state prior to the application of
  each transformation").

Statement addressing: many transformations target a *block* -- a statement
sequence inside a subprogram body.  A block path is a tuple of steps from
the body: an integer descends into that statement (a For/While body), and
``("then", k)`` / ``("else",)`` descend into branch ``k`` / the else arm of
an If.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..equiv import CHECKS
from ..equiv.theorem import preservation
from ..evidence import Evidence
from ..exec.config import ExecConfig, coerce_exec_config
from ..lang import TypedPackage, analyze, ast
from ..lang.errors import TypeError_

__all__ = [
    "TransformationError", "Transformation", "Application",
    "RefactoringEngine", "get_block", "replace_block", "iter_blocks",
    "bound_loop_vars", "names_in",
]


class TransformationError(Exception):
    """The transformation is not applicable (with the reason).  ``level``
    is a refuting theorem's, or ``symbolic`` for a refusal decided on the
    program text alone."""

    def __init__(self, message: str, level: str = "symbolic"):
        super().__init__(message)
        self.level = level


# ---------------------------------------------------------------------------
# Block paths
# ---------------------------------------------------------------------------

def get_block(body: Tuple[ast.Stmt, ...],
              path: Sequence = ()) -> Tuple[ast.Stmt, ...]:
    """Resolve a block path to the statement tuple it denotes."""
    block = body
    for step in path:
        if isinstance(step, int):
            stmt = block[step]
            if isinstance(stmt, (ast.For, ast.While)):
                block = stmt.body
            else:
                raise TransformationError(
                    f"path step {step} is not a loop statement")
        elif isinstance(step, tuple) and step and step[0] == "then":
            stmt_index, branch = step[1], step[2]
            stmt = block[stmt_index]
            if not isinstance(stmt, ast.If):
                raise TransformationError("path step expects an if")
            block = stmt.branches[branch][1]
        elif isinstance(step, tuple) and step and step[0] == "else":
            stmt = block[step[1]]
            if not isinstance(stmt, ast.If):
                raise TransformationError("path step expects an if")
            block = stmt.else_body
        else:
            raise TransformationError(f"bad path step {step!r}")
    return block


def replace_block(body: Tuple[ast.Stmt, ...], path: Sequence,
                  new_block: Tuple[ast.Stmt, ...]) -> Tuple[ast.Stmt, ...]:
    """Rebuild ``body`` with the block at ``path`` replaced."""
    if not path:
        return tuple(new_block)
    step, rest = path[0], path[1:]
    out = list(body)
    if isinstance(step, int):
        stmt = body[step]
        if not isinstance(stmt, (ast.For, ast.While)):
            raise TransformationError(f"path step {step} is not a loop")
        out[step] = dataclasses.replace(
            stmt, body=replace_block(stmt.body, rest, new_block))
    elif isinstance(step, tuple) and step[0] == "then":
        stmt_index, branch = step[1], step[2]
        stmt = body[stmt_index]
        branches = list(stmt.branches)
        cond, b = branches[branch]
        branches[branch] = (cond, replace_block(b, rest, new_block))
        out[stmt_index] = dataclasses.replace(stmt, branches=tuple(branches))
    elif isinstance(step, tuple) and step[0] == "else":
        stmt = body[step[1]]
        out[step[1]] = dataclasses.replace(
            stmt, else_body=replace_block(stmt.else_body, rest, new_block))
    else:
        raise TransformationError(f"bad path step {step!r}")
    return tuple(out)


def iter_blocks(body: Tuple[ast.Stmt, ...],
                prefix: Sequence = ()
                ) -> Iterator[Tuple[Tuple, Tuple[ast.Stmt, ...]]]:
    """Yield every addressable ``(path, block)`` of a subprogram body.

    The root block comes first, then nested blocks in statement order
    (loop bodies, then-branches, else-arms), depth-first.  The paths are
    exactly the ones :func:`get_block`/:func:`replace_block` resolve, so
    site enumerators can propose block-path-aware transformations
    without reimplementing the addressing scheme."""
    prefix = tuple(prefix)
    yield prefix, body
    for i, stmt in enumerate(body):
        if isinstance(stmt, (ast.For, ast.While)):
            yield from iter_blocks(stmt.body, prefix + (i,))
        elif isinstance(stmt, ast.If):
            for b, (_cond, branch) in enumerate(stmt.branches):
                yield from iter_blocks(branch, prefix + (("then", i, b),))
            if stmt.else_body:
                yield from iter_blocks(stmt.else_body, prefix + (("else", i),))


def bound_loop_vars(body: Tuple[ast.Stmt, ...], path: Sequence) -> set:
    """The loop variables bound by the ``For`` loops a block path
    descends through.

    A variable introduced *inside* the block at ``path`` must avoid
    these names: loop variables live outside the subprogram's declared
    context, so a context freshness check alone would accept a
    same-named inner loop that silently captures every occurrence of
    the enclosing variable in its body (the program still type-checks,
    it just indexes with the wrong variable)."""
    vars_: set = set()
    block = body
    for step in path:
        if isinstance(step, int):
            stmt = block[step]
            if not isinstance(stmt, (ast.For, ast.While)):
                raise TransformationError(
                    f"path step {step} is not a loop statement")
            if isinstance(stmt, ast.For):
                vars_.add(stmt.var)
            block = stmt.body
        elif isinstance(step, tuple) and step and step[0] == "then":
            block = block[step[1]].branches[step[2]][1]
        elif isinstance(step, tuple) and step and step[0] == "else":
            block = block[step[1]].else_body
        else:
            raise TransformationError(f"bad path step {step!r}")
    return vars_


def names_in(stmts: Sequence[ast.Stmt]) -> set:
    """Every identifier occurring in ``stmts``: variable reads and
    writes (``Name``), loop variables (``For``), and quantified
    variables (``ForAll``).  The complement is what "fresh" has to mean
    for a loop variable wrapped *around* these statements -- a nested
    loop inside them with the same name would capture the new
    variable's occurrences in its body."""
    out: set = set()
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, (ast.For, ast.ForAll)):
                out.add(node.var)
    return out


# ---------------------------------------------------------------------------
# Transformations
# ---------------------------------------------------------------------------

class Transformation:
    """Base class.  Subclasses set ``name`` and ``category`` (one of the
    paper's section 5.1 categories) and implement ``apply``.

    ``apply`` takes the current :class:`TypedPackage` and returns the
    transformed :class:`~repro.lang.ast.Package`; it raises
    :class:`TransformationError` when not applicable (the mechanical
    applicability check)."""

    name: str = "?"
    category: str = "?"
    #: True when the transformation cannot change the set of declared
    #: names, types, or subprogram signatures -- the spec-structure match
    #: ratio of the result equals the input's, so a planner may reuse the
    #: parent state's ratio instead of re-extracting (see repro.plan).
    match_neutral: bool = False

    def apply(self, typed: TypedPackage) -> ast.Package:
        raise NotImplementedError

    def affected_subprograms(self, typed: TypedPackage) -> List[str]:
        """Subprograms whose semantics the theorem must check; default:
        the engine's observables."""
        return []

    def describe(self) -> str:
        return self.name

    @classmethod
    def enumerate_sites(cls, typed: TypedPackage
                        ) -> Iterator["Transformation"]:
        """Yield instances applicable (mechanically, by a cheap
        over-approximation) to ``typed`` -- the site-enumeration hook the
        automated planner (:mod:`repro.plan`) drives.

        The default is the empty enumeration: families whose parameters
        cannot be inferred from the package alone (user-specified
        payloads, extraction templates) stay planner-catalog territory.
        Overrides must be **deterministic** -- ordered by package
        position, never by dict iteration over unordered sets or by
        ``id()`` -- and may over-approximate: every proposal is still
        subject to ``apply``'s full applicability check, re-analysis, and
        the semantics-preservation theorem before it can enter a chain."""
        return iter(())


@dataclass
class Application:
    """Record of one applied transformation (its theorems by subprogram)."""

    transformation: str
    category: str
    description: str
    theorems: Dict[str, Evidence] = field(default_factory=dict)

    @property
    def preserved(self) -> bool:
        return all(t.holds for t in self.theorems.values())


class RefactoringEngine:
    """Figure-1's Transformer + Transformation Proof Checker.

    ``observables`` are the interface subprograms; each application's
    preservation theorem is discharged on every observable that exists with
    an unchanged signature on both sides.  ``check`` selects the rungs of
    the evidence ladder (:data:`~repro.equiv.theorem.CHECKS`): ``"full"``
    (symbolic, then exhaustive, then sampled), ``"differential"`` (sampled
    only; faster), or ``"none"`` (postpone the proof, as section 5.2
    explicitly permits)."""

    def __init__(self, package: ast.Package,
                 observables: Sequence[str],
                 check: str = "full",
                 trials: int = 24,
                 seed: int = 20090701,
                 samplers: Optional[dict] = None,
                 exec: Optional[ExecConfig] = None,
                 check_observables: bool = False,
                 memo=None):
        if check not in CHECKS:
            raise ValueError(f"check must be one of {', '.join(CHECKS)}, "
                             f"not {check!r}")
        self.typed = analyze(package)
        self.observables = list(observables)
        self.check = check
        #: When True, every application's theorem set always includes the
        #: observables, even if the transformation names narrower affected
        #: subprograms.  The narrow default is the historical pipeline
        #: behavior (cheap, and sound when each family's affected-set is
        #: honest); an automated search that composes hundreds of steps
        #: wants the end-to-end guarantee on every accepted edge instead.
        self.check_observables = check_observables
        self.trials = trials
        self.seed = seed
        #: observable name -> sampler(rng) -> initial state; restricts the
        #: theorem to the meaningful input domain (documented precondition).
        self.samplers = samplers or {}
        self.history: List[Tuple[Application, ast.Package]] = []
        #: obligation-scheduler configuration: differential trials fan out
        #: one obligation per trial when ``jobs > 1`` (see
        #: ``_differential``).
        self.exec = coerce_exec_config(exec, owner="RefactoringEngine")
        #: A planner search's :class:`~repro.plan.reuse.SearchMemo`: the
        #: before side of an in-process differential trial runs once per
        #: (package fingerprint, subprogram, initial state) per search.
        self.memo = memo

    @property
    def package(self) -> ast.Package:
        return self.typed.package

    def apply(self, transformation: Transformation) -> Application:
        before = self.typed
        new_package = transformation.apply(before)
        try:
            after = analyze(new_package)
        except TypeError_ as exc:
            raise TransformationError(
                f"{transformation.name}: transformed program does not "
                f"type-check: {exc}")
        if self.check_observables:
            gone = [o for o in self.observables
                    if o in before.signatures and o not in after.signatures]
            if gone:
                # Deleting an observable would make every later check on it
                # vacuous (``_checkable`` can only compare names present on
                # both sides), so an engine holding the full observable
                # interface refuses outright.
                raise TransformationError(
                    f"{transformation.name}: removes observable "
                    f"subprogram(s) {', '.join(gone)}")
        application = Application(
            transformation=transformation.name,
            category=transformation.category,
            description=transformation.describe(),
        )
        if CHECKS[self.check]:
            for name in self._checkable(before, after, transformation):
                theorem = self._theorem(before, after, name)
                application.theorems[name] = theorem
                if not theorem.holds:
                    raise TransformationError(
                        f"{transformation.name}: semantics NOT preserved for "
                        f"{name}: {theorem.counterexample or theorem.detail}",
                        level=theorem.level)
        self.history.append((application, before.package))
        self.typed = after
        return application

    def undo(self) -> Application:
        if not self.history:
            raise TransformationError("nothing to undo")
        application, package = self.history.pop()
        self.typed = analyze(package)
        return application

    def enumerate_candidates(self) -> List[Transformation]:
        """Ask every library family for applicable sites on the current
        package (each class's :meth:`Transformation.enumerate_sites`).

        The order is deterministic: families in library-registry order,
        sites in each family's own (package-position) order.  Proposals
        are *candidates*, not commitments -- the planner scores them and
        :meth:`apply` still runs the full applicability check plus the
        semantics-preservation theorem on whichever one is chosen."""
        from .library import TRANSFORMATION_LIBRARY   # circular at module load
        out: List[Transformation] = []
        for classes in TRANSFORMATION_LIBRARY.values():
            for cls in classes:
                out.extend(cls.enumerate_sites(self.typed))
        return out

    # -- internals --------------------------------------------------------

    def _checkable(self, before: TypedPackage, after: TypedPackage,
                   transformation: Transformation) -> List[str]:
        explicit = transformation.affected_subprograms(before)
        names = explicit or self.observables
        if self.check_observables:
            names = list(names) + [o for o in self.observables
                                   if o not in names]
        out = []
        for name in names:
            if name in before.signatures and name in after.signatures:
                b = before.signatures[name]
                a = after.signatures[name]
                if _same_signature(before, b, after, a):
                    out.append(name)
        return out

    def _theorem(self, before: TypedPackage, after: TypedPackage,
                 name: str) -> Evidence:
        sampler = self.samplers.get(name)
        return preservation(
            before, name, after, name,
            lambda: self._differential(before, after, name, sampler),
            check=self.check, sampler=sampler)

    def _differential(self, before: TypedPackage, after: TypedPackage,
                      name: str, sampler) -> Evidence:
        """The sampled rung of every check mode: ``differential_check``'s
        trial states and evidence, with one scheduler obligation per
        trial.  Serially the trials stop at the first counterexample; in
        parallel they all run and the earliest (by trial index) is
        reported, so the evidence is the same either way.

        With a search memo, every trial runs in this process, where the
        memo is: the obligations carry no payload, so the scheduler runs
        them inline on every backend (DESIGN.md §22).  A trial takes the
        before side's run from the memo: siblings validated against the
        same parent with the same seed draw the same initial states.  The
        after side runs on every trial.  Without a memo, each trial ships
        as an :class:`~repro.exec.payload.EquivTrialPayload`."""
        from ..equiv.differential import (
            _compare, _run, trial_evidence, trial_states,
        )
        from ..equiv.model import state_key
        from ..exec import EquivTrialPayload, equiv_trial_obligation, \
            package_fingerprint

        states = trial_states(before, name, after, name, self.trials,
                              self.seed, sampler)

        left_fp = package_fingerprint(before)
        right_fp = package_fingerprint(after)
        memo = self.memo

        def left_run(state):
            if memo is None:
                return None
            return memo.get("differential_runs",
                            (left_fp, name, state_key(state)),
                            lambda: _run(before, name, state))

        obligations = [
            equiv_trial_obligation(
                i, name, state,
                (lambda s=state: _compare(before, name, after, name, s,
                                          left=left_run(s))),
                left_fp=left_fp, right_fp=right_fp,
                payload=None if memo is not None else EquivTrialPayload(
                    left_package=before.package,
                    right_package=after.package,
                    left_fp=left_fp, right_fp=right_fp,
                    left_name=name, right_name=name,
                    initial=tuple(sorted(state.items()))))
            for i, state in enumerate(states)
        ]
        with self.exec.scheduler() as scheduler:
            results = scheduler.run(
                obligations, stop_on=lambda outcome: outcome.ok
                and outcome.value is not None)
        return trial_evidence("sampled", (outcome.value if outcome.ok
                                          else None for outcome in results))


def _same_structural_type(before: TypedPackage, a_name: str,
                          after: TypedPackage, b_name: str) -> bool:
    """Compare resolved types structurally (a rename of a type does not
    change the observable interface)."""
    ta = before.types.get(a_name)
    tb = after.types.get(b_name)
    if ta is None or tb is None:
        return a_name == b_name
    return _structurally_equal(ta, tb)


def _structurally_equal(ta, tb) -> bool:
    from ..lang.types import ArrayType, ModularType, RangeType
    if type(ta) is not type(tb):
        return False
    if isinstance(ta, ModularType):
        return ta.modulus == tb.modulus
    if isinstance(ta, RangeType):
        return (ta.lo, ta.hi) == (tb.lo, tb.hi)
    if isinstance(ta, ArrayType):
        return (ta.lo, ta.hi) == (tb.lo, tb.hi) and \
            _structurally_equal(ta.elem, tb.elem)
    return True


def _same_signature(before: TypedPackage, b, after: TypedPackage, a) -> bool:
    if len(b.params) != len(a.params):
        return False
    for pb, pa in zip(b.params, a.params):
        if (pb.name, pb.mode) != (pa.name, pa.mode):
            return False
        if not _same_structural_type(before, pb.type_name,
                                     after, pa.type_name):
            return False
    if (b.return_type is None) != (a.return_type is None):
        return False
    if b.return_type is not None and not _same_structural_type(
            before, b.return_type, after, a.return_type):
        return False
    return True
