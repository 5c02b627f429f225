"""Results one planner search computes once and reuses (DESIGN.md §22).

A candidate state usually differs from its parent in one subprogram, so
most of what measuring or validating it needs was already computed for
a sibling or an ancestor.  A :class:`SearchMemo` holds those results for
the length of one :meth:`~repro.plan.search.Planner.plan` call:

* ``probe_subprograms`` -- the budgeted examiner's
  :class:`~repro.vcgen.examiner.SubprogramAnalysis` of one subprogram of
  a stripped package, keyed by its name, its cone fingerprint
  (:func:`~repro.incr.fingerprint.cone_fingerprints`) and the tree
  budget;
* ``differential_runs`` -- the parent side of one differential trial,
  ``(final state, fault)``, keyed by the parent's package fingerprint,
  the subprogram and the initial state;
* the typed form of each state the search validated or expands, keyed
  by its package fingerprint (not counted); the evaluations take their
  parent's from here.

Every entry is the same deterministic computation on the same content,
so a reuse cannot change an evaluation, a theorem or a verdict.  The
search's memo is handed to the in-process evaluation thunks and to the
validation engine, whose trials therefore run in this process on every
backend.  It never travels: an evaluation shipped to a process-backend
worker uses that worker's own memo
(:func:`~repro.exec.payload.worker_state`), which lives as long as the
worker -- one search, since the planner's scheduler reaps its pool
before :meth:`~repro.plan.search.Planner.plan` returns.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Tuple

__all__ = ["SearchMemo", "REUSE_KINDS"]

#: The counted kinds, in report order.
REUSE_KINDS = ("probe_subprograms", "differential_runs")


class SearchMemo:
    """``(kind, key) -> value`` for one search, with reuse counts."""

    def __init__(self):
        self._values: Dict[Tuple[str, Hashable], Any] = {}
        #: kind -> how many lookups were answered from the memo.
        self.reused: Dict[str, int] = dict.fromkeys(REUSE_KINDS, 0)

    def get(self, kind: str, key: Hashable, compute: Callable[[], Any]):
        """The value stored under ``(kind, key)``, computed on first
        use."""
        slot = (kind, key)
        try:
            value = self._values[slot]
        except KeyError:
            value = self._values[slot] = compute()
        else:
            if kind in self.reused:
                self.reused[kind] += 1
        return value

    def typed(self, fingerprint: str, package):
        """The typed form of ``package`` (whose fingerprint is given)."""
        from ..lang import analyze
        return self.get("typed", fingerprint, lambda: analyze(package))

    def remember_typed(self, fingerprint: str, typed) -> None:
        """Record a typed form the caller already has."""
        self._values[("typed", fingerprint)] = typed
