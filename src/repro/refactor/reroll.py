"""Re-rolling unrolled loops (paper 5.1, "Rerolling loops")."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Tuple

from ..lang import TypedPackage, ast
from ..lang.memo import ObjectMemo
from .engine import Transformation, TransformationError, bound_loop_vars, \
    get_block, iter_blocks, names_in, replace_block
from .unify import AntiUnifyError, anti_unify_groups

__all__ = ["RerollLoop"]

#: Deterministic preference order for fresh loop variables proposed by
#: site enumeration (the first name not already in scope wins).
_FRESH_VARS = ("I", "J", "K", "R", "It", "Ix")

#: Site-enumeration bounds: the largest statement group the run detector
#: tries, and the minimum statements a proposed reroll must cover (below
#: that the loop costs more structure than it removes).
_MAX_GROUP_SIZE = 12
_MIN_COVERAGE = 4


@dataclass
class RerollLoop(Transformation):
    """Turn ``count`` consecutive groups of ``group_size`` statements
    (starting at ``start`` within the block at ``path``) into

        for <var> in 0 .. count-1 loop <template> end loop;

    The template is found by anti-unification; literals must vary affinely
    with the group index.  A defect breaking the repetition pattern makes
    this transformation mechanically inapplicable."""

    subprogram: str
    start: int
    group_size: int
    count: int
    var: str = "I"
    path: Tuple = ()

    name = "reroll-loop"
    category = "rerolling loops"
    match_neutral = True   # body-only: declares no new package element

    @classmethod
    def enumerate_sites(cls, typed: TypedPackage):
        """Propose maximal anti-unifiable runs in every block.

        For each subprogram, block, and group size, scan left to right
        for the longest run of consecutive statement groups that
        anti-unify against a fresh loop variable; emit the run and skip
        past it (left-maximality comes from scanning in order, right-
        maximality from extending until unification fails).  Runs
        covering fewer than ``_MIN_COVERAGE`` statements are noise, not
        unrolled loops."""
        for sp in typed.package.subprograms:
            for start, group_size, count, var, path in \
                    _reroll_sites(typed, sp):
                yield cls(subprogram=sp.name, start=start,
                          group_size=group_size, count=count, var=var,
                          path=path)

    def describe(self) -> str:
        return (f"reroll {self.count}x{self.group_size} statements in "
                f"{self.subprogram} at {self.start} into a loop over "
                f"{self.var}")

    def affected_subprograms(self, typed):
        return [self.subprogram]

    def apply(self, typed: TypedPackage) -> ast.Package:
        sp = _subprogram(typed, self.subprogram)
        block = get_block(sp.body, self.path)
        end = self.start + self.group_size * self.count
        if self.start < 0 or end > len(block):
            raise TransformationError(
                f"{self.name}: range {self.start}..{end} outside block of "
                f"{len(block)} statements")
        ctx = typed.context(self.subprogram)
        if ctx.var_type(self.var) is not None:
            raise TransformationError(
                f"{self.name}: loop variable '{self.var}' already in scope")
        window = block[self.start:end]
        if self.var in bound_loop_vars(sp.body, self.path) or \
                self.var in names_in(window):
            raise TransformationError(
                f"{self.name}: loop variable '{self.var}' would capture "
                f"an existing use (enclosing loop variable or identifier "
                f"in the rerolled statements)")
        groups = [tuple(block[self.start + g * self.group_size:
                              self.start + (g + 1) * self.group_size])
                  for g in range(self.count)]
        try:
            template = anti_unify_groups(groups, self.var)
        except AntiUnifyError as exc:
            raise TransformationError(f"{self.name}: {exc}")
        loop = ast.For(var=self.var, lo=ast.IntLit(value=0),
                       hi=ast.IntLit(value=self.count - 1), body=template)
        new_block = block[:self.start] + (loop,) + block[end:]
        new_body = replace_block(sp.body, self.path, new_block)
        new_sp = dataclasses.replace(sp, body=new_body)
        return typed.package.replace_subprogram(self.subprogram, new_sp)


#: subprogram -> (the fresh names package constants take, its sites).
_SITES = ObjectMemo()


def _reroll_sites(typed: TypedPackage, sp: ast.Subprogram) -> Tuple:
    """``(start, group_size, count, var, path)`` of every reroll site of
    ``sp``.  They depend on ``sp`` and on which fresh names are package
    constants (``var_type`` reads the subprogram's own variables and the
    package's constants), so a subprogram object is scanned once per
    set of such constants."""
    constants = frozenset(v for v in _FRESH_VARS if v in typed.constants)
    memo = _SITES.get(sp)
    if memo is not None and memo[0] == constants:
        return memo[1]
    ctx = typed.context(sp.name)
    sites = []
    for path, block in iter_blocks(sp.body):
        # "Fresh" is per block, not per context: loop variables of
        # enclosing loops (along ``path``) and identifiers already used
        # inside the block are not in the declared context but reusing
        # them would capture -- an inner loop named like its enclosing
        # loop rebinds the outer occurrences in the rerolled statements.
        taken = bound_loop_vars(sp.body, path) | names_in(block)
        var = next((v for v in _FRESH_VARS
                    if ctx.var_type(v) is None and v not in taken), None)
        if var is None:
            continue
        max_group = min(_MAX_GROUP_SIZE, len(block) // 2)
        for group_size in range(1, max_group + 1):
            start = 0
            while start + 2 * group_size <= len(block):
                count = _run_length(block, start, group_size, var)
                if count >= 2 and count * group_size >= _MIN_COVERAGE:
                    sites.append((start, group_size, count, var, path))
                    start += count * group_size
                else:
                    start += 1
    return _SITES.put(sp, (constants, tuple(sites)))[1]


def _run_length(block, start: int, group_size: int, var: str) -> int:
    """How many consecutive groups from ``start`` anti-unify together."""
    groups = [tuple(block[start:start + group_size])]
    count = 1
    while True:
        lo = start + count * group_size
        nxt = tuple(block[lo:lo + group_size])
        if len(nxt) < group_size:
            break
        try:
            anti_unify_groups(groups + [nxt], var)
        except AntiUnifyError:
            break
        groups.append(nxt)
        count += 1
    return count


def _subprogram(typed: TypedPackage, name: str) -> ast.Subprogram:
    try:
        return typed.package.subprogram(name)
    except KeyError:
        raise TransformationError(f"no subprogram named '{name}'")
