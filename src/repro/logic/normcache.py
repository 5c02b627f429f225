"""Cross-obligation normalization cache.

The pipeline's per-VC hot path builds a *fresh* :class:`~repro.logic
.rewriter.Rewriter` for every verification condition (the auto prover
constructs one simplifier per ``prove`` call), so the rewriter's own DAG
memo -- keyed on interning ids, scoped to one instance -- cannot carry a
normal form from one VC to the next even though AES VCs share most of
their structure (round bodies, table axioms).  This module provides the
memo that survives: a bounded, thread-safe LRU mapping

    (rules_key, canonical fingerprint of the input subterm)
        -> its normal form

where ``rules_key`` names everything that determines the normal form
besides the term itself (package fingerprint, subprogram -- the type-bound
hook differs per subprogram -- excluded rule families, and whether the
prover's extra rules are loaded).  Keying on :func:`repro.logic.canon
.fingerprint` rather than interning ids makes entries meaningful across
rewriter instances and across threads.  Nothing crosses the process
boundary: the implementation-proof session owns one cache (the examiner
warms it, the inline per-VC provers reuse it), and each process-pool or
farm worker fills its own :func:`default_norm_cache` as it discharges
(shipping the parent's warm entries to workers was measured and bought
nothing; DESIGN.md §13).

Soundness is inherited from the rewriter's own DAG memo: rewriting is
context-free (a rule sees one node, never its ancestors), so a subterm's
normal form under a fixed rule set is position-independent -- exactly the
property the per-instance memo already relies on -- and caching it across
instances keyed by (rule set, term identity) changes no result.  Only
*converged* results are published.  Eviction is least-recently-used; the
cache never invalidates (terms are immutable and the rules are pinned by
the key), it only bounds memory.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple

from .terms import Term

__all__ = ["NormalizationCache", "NormScope", "default_norm_cache",
           "DEFAULT_NORM_CACHE_ENTRIES"]

#: LRU capacity.  An AES-sized implementation proof publishes a few
#: tens of thousands of distinct subterm normal forms; 1<<16 keeps the
#: whole working set resident while bounding a long harness run.
DEFAULT_NORM_CACHE_ENTRIES = 1 << 16


class NormalizationCache:
    """Bounded, thread-safe LRU of normal forms keyed by
    ``(rules_key, fingerprint)``."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, str], Term]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    # -- core ---------------------------------------------------------------

    def get(self, rules_key: str, fp: str) -> Optional[Term]:
        key = (rules_key, fp)
        with self._lock:
            term = self._entries.get(key)
            if term is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return term

    def put(self, rules_key: str, fp: str, term: Term) -> None:
        key = (rules_key, fp)
        entries = self._entries
        with self._lock:
            if key in entries:
                entries.move_to_end(key)
                entries[key] = term
                return
            entries[key] = term
            while len(entries) > DEFAULT_NORM_CACHE_ENTRIES:
                entries.popitem(last=False)

    def scope(self, rules_key: str) -> "NormScope":
        """A single-key view suitable for :class:`~repro.logic.rewriter
        .Rewriter`'s ``shared`` parameter."""
        return NormScope(self, rules_key)

    # -- stats / maintenance ------------------------------------------------

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = 0


class NormScope:
    """A :class:`NormalizationCache` bound to one ``rules_key``: the
    ``shared`` handle a rewriter consults (``get``/``put`` by fingerprint
    alone, on its hot path)."""

    __slots__ = ("cache", "rules_key")

    def __init__(self, cache: NormalizationCache, rules_key: str):
        self.cache = cache
        self.rules_key = rules_key

    def get(self, fp: str) -> Optional[Term]:
        return self.cache.get(self.rules_key, fp)

    def put(self, fp: str, term: Term) -> None:
        self.cache.put(self.rules_key, fp, term)


_DEFAULT: Optional[NormalizationCache] = None
_DEFAULT_LOCK = threading.Lock()


def default_norm_cache() -> NormalizationCache:
    """The process-wide cache (used by process-pool workers, where the
    session object that owns a per-run instance does not exist)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            _DEFAULT = NormalizationCache()
        return _DEFAULT
