"""Rewriter benchmark: iterative engine vs the old recursive normalize.

Two workloads:

* the full refactored-AES VC corpus (the realistic case -- shallow, wide,
  heavily shared terms), asserting the iterative engine produces
  bit-identical terms and :class:`RewriteStats` at no significant slowdown;
* a deep add/mask chain (the crash-class case), where the recursive
  baseline needs its recursion limit raised ~3x the term depth and dies on
  a small thread stack, while the iterative engine is depth-oblivious.

The recursive baseline is a verbatim copy of the seed's ``normalize``; it
lives here (and in ``tests/test_stack_safety.py``) only -- production code
must not depend on interpreter recursion depth.
"""

import sys
import time

from repro.aes import refactored_package
from repro.logic import Rewriter, add, band, default_rules, intc, var
from repro.logic.rewriter import _MAX_FIXPOINT_ITERS
from repro.logic.substitute import rebuild_smart
from repro.vcgen import generate_obligations
from repro.vcgen.simplifier import TypeBoundHook
from tests.rewriter_reference import LinearRewriter

#: The recursive baseline must not be >25% faster than the iterative
#: engine on the realistic corpus (i.e. iterative is "no slower" modulo
#: timer noise on sub-second workloads).
_SLOWDOWN_TOLERANCE = 1.25

_DEEP_N = 4000  # chain depth 8001: far beyond any default recursion limit


class _RecursiveRewriter(LinearRewriter):
    """The seed's recursive ``normalize``, verbatim (baseline only)."""

    def normalize(self, term):
        memo = self._memo
        hit = memo.get(term._id)
        if hit is not None:
            return hit
        self._charge(nodes=1)
        if term.args:
            new_args = tuple(self.normalize(a) for a in term.args)
            current = rebuild_smart(term.op, new_args, term.value)
            if current is not term and current._id in memo:
                memo[term._id] = memo[current._id]
                return memo[term._id]
        else:
            current = term
        for _ in range(_MAX_FIXPOINT_ITERS):
            replacement = self._apply_one(current)
            if replacement is None:
                break
            if replacement._id in memo:
                current = memo[replacement._id]
            elif replacement.args and any(
                a._id not in memo or memo[a._id] is not a
                for a in replacement.args
            ):
                current = self.normalize(replacement)
            else:
                current = replacement
        else:
            self._charge(exhausted=1)
        memo[term._id] = current
        memo[current._id] = current
        return current


def _corpus():
    typed = refactored_package()
    out = []
    for sp in typed.package.subprograms:
        obls = generate_obligations(typed, typed.signatures[sp.name])
        if obls:
            out.append((sp.name, [o.term for o in obls]))
    return typed, out


def _normalize_corpus(typed, corpus, rewriter_cls):
    results = []
    stats = []
    for name, terms in corpus:
        rw = rewriter_cls(default_rules(hook=TypeBoundHook(typed, name)))
        results.extend(rw.normalize(t) for t in terms)
        stats.append(rw.stats)
    return results, stats


def _deep_chain(n):
    t = var("x")
    for _ in range(n):
        t = band(add(t, intc(1)), intc(255))
    return t


def bench_rewriter_iterative_vs_recursive(benchmark):
    typed, corpus = _corpus()
    vc_count = sum(len(terms) for _, terms in corpus)

    # Warm the interning table so neither timing pays construction costs.
    _normalize_corpus(typed, corpus, Rewriter)

    t0 = time.perf_counter()
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 100_000))
    try:
        ref_results, ref_stats = _normalize_corpus(
            typed, corpus, _RecursiveRewriter)
    finally:
        sys.setrecursionlimit(old_limit)
    recursive_s = time.perf_counter() - t0

    new_results, new_stats = benchmark.pedantic(
        lambda: _normalize_corpus(typed, corpus, Rewriter),
        rounds=3, iterations=1)

    t0 = time.perf_counter()
    _normalize_corpus(typed, corpus, Rewriter)
    iterative_s = time.perf_counter() - t0

    # The deep chain: iterative handles a depth the recursive baseline
    # cannot touch without a raised limit (and not at all on the small
    # fixed stacks of scheduler worker threads).
    deep = _deep_chain(_DEEP_N)
    t0 = time.perf_counter()
    deep_normal = Rewriter(default_rules()).normalize(deep)
    deep_s = time.perf_counter() - t0
    failed_at_default_limit = False
    try:
        _RecursiveRewriter(default_rules()).normalize(deep)
    except RecursionError:
        failed_at_default_limit = True

    print()
    print(f"corpus           {vc_count} VCs over {len(corpus)} subprograms")
    print(f"recursive        {recursive_s * 1000:.1f} ms")
    print(f"iterative        {iterative_s * 1000:.1f} ms "
          f"({iterative_s / recursive_s:.2f}x recursive)")
    print(f"deep chain       depth {2 * _DEEP_N + 1}: iterative "
          f"{deep_s * 1000:.1f} ms; recursive raises RecursionError "
          f"at the default limit ({sys.getrecursionlimit()})")

    # Differential gate: identical terms, bit-identical stats.
    assert all(n is r for n, r in zip(new_results, ref_results))
    assert new_stats == ref_stats
    assert deep_normal is not None
    assert failed_at_default_limit
    # Perf gate: iterative no slower than recursive (modulo noise).
    assert iterative_s <= recursive_s * _SLOWDOWN_TOLERANCE, (
        f"iterative normalize {iterative_s:.3f}s vs recursive "
        f"{recursive_s:.3f}s exceeds {_SLOWDOWN_TOLERANCE}x tolerance")
