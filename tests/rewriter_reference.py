"""The linear-scan rewriter: the differential reference for head-op
indexing (DESIGN.md section 13).

``Rewriter.normalize`` consults only the dispatch bucket of each node's
root operator.  The functions below are the original engine, moved out
of ``repro.logic.rewriter``: every fixpoint iteration scans the whole
rule list.  Both must reach identical normal forms, memo tables and
``RewriteStats``.  They take the rewriter as ``self`` and call each
other directly, so they also run when patched onto ``Rewriter``.

* :class:`LinearRewriter` -- a ``Rewriter`` that normalizes by the scan.
* :func:`use_linear_scan` -- patch every in-process ``Rewriter`` to the
  scan (the linear legs of whole-pipeline differentials; process-pool
  workers keep the indexed engine).
"""

from typing import Optional

from repro.logic import Rewriter
from repro.logic.rewriter import (
    _EXPAND, _MAX_FIXPOINT_ITERS, _REBUILD, _RESUME,
)
from repro.logic.substitute import rebuild_smart
from repro.logic.terms import Term

__all__ = ["LinearRewriter", "normalize_linear", "use_linear_scan"]


def normalize_linear(self, term: Term) -> Term:
    """The original engine: every fixpoint iteration scans the full
    rule list.  Kept verbatim as the differential reference for the
    indexed path.

    The traversal is an explicit-stack DFS over the DAG -- the exact
    recursion structure of the classic algorithm (preorder charging,
    left-to-right children, postorder rebuild, per-node fixpoint with
    suspension when a replacement needs normalizing first), so memo
    contents, term-creation order, and stats are bit-identical to the
    recursive formulation while depth is bounded by heap only.
    """
    memo = self._memo
    hit = memo.get(term._id)
    if hit is not None:
        return hit
    stack = [(_EXPAND, term, None)]
    while stack:
        state, node, pending = stack.pop()
        if state == _EXPAND:
            if node._id in memo:
                continue
            self._charge(nodes=1)
            if node.args:
                stack.append((_REBUILD, node, None))
                for a in reversed(node.args):
                    if a._id not in memo:
                        stack.append((_EXPAND, a, None))
                continue
            suspended = _fixpoint(self, node, node, _MAX_FIXPOINT_ITERS)
        elif state == _REBUILD:
            # Always rebuild through the smart constructors: terms
            # built with the raw constructor (e.g. by shape-preserving
            # substitution in the WP calculus) fold only here.
            current = rebuild_smart(
                node.op, tuple(memo[a._id] for a in node.args),
                node.value)
            if current is not node and current._id in memo:
                memo[node._id] = memo[current._id]
                continue
            suspended = _fixpoint(self, node, current,
                                  _MAX_FIXPOINT_ITERS)
        else:  # _RESUME: the suspended replacement is normalized now.
            replacement, iters = pending
            suspended = _fixpoint(self, node, memo[replacement._id],
                                  iters)
        if suspended is not None:
            stack.append((_RESUME, node, suspended))
            stack.append((_EXPAND, suspended[0], None))
    return memo[term._id]


def _fixpoint(self, node: Term, current: Term, iters: int):
    """Drive ``node``'s rewrite fixpoint starting from ``current``.

    Returns ``None`` once ``node`` is memoized, or ``(replacement,
    iters_left)`` to suspend so the caller can normalize a freshly
    built replacement -- its spine may expose further redexes even
    though its leaves are already normal -- before resuming.
    """
    memo = self._memo
    while iters:
        iters -= 1
        replacement = _apply_one(self, current)
        if replacement is None:
            break
        if replacement._id in memo:
            current = memo[replacement._id]
        elif replacement.args and any(
            a._id not in memo or memo[a._id] is not a
            for a in replacement.args
        ):
            return replacement, iters
        else:
            current = replacement
    else:
        # The fixpoint did not converge: memoizing ``current`` below
        # caches a possibly-reducible term as "normal".  Count it and
        # charge the budget so the overrun shows up in the examiner
        # report (or trips RewriteBudgetExceeded) instead of hiding.
        self._charge(exhausted=1)
    memo[node._id] = current
    memo[current._id] = current
    return None


def _apply_one(self, term: Term) -> Optional[Term]:
    for rule in self.rules:
        result = rule(term)
        if result is not None and result is not term:
            self._charge(applications=1, rule=rule.name)
            return result
    return None


class LinearRewriter(Rewriter):
    """A ``Rewriter`` whose ``normalize`` is the linear scan."""

    normalize = normalize_linear
    _apply_one = _apply_one


def use_linear_scan(monkeypatch) -> None:
    """Make every ``Rewriter`` built in this process normalize by the
    linear scan for the rest of the test."""
    monkeypatch.setattr(Rewriter, "normalize", normalize_linear)
