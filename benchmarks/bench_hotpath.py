"""Hot-path benchmark: head-op rule indexing + the cross-obligation
normalization cache (DESIGN.md section 13), and the iterative engine
against the recursive one it replaced.

The rewrite microbench reproduces the prover's actual hot path: one
*fresh* rewriter per VC (as ``AutoProver._prove`` builds a fresh
``Simplifier`` per obligation) over the full refactored-AES VC corpus.
The linear-scan reference (``tests/rewriter_reference.py``, no shared
cache) races the optimized configuration (head-op dispatch + a
:class:`~repro.logic.normcache.NormalizationCache` scope per
subprogram).  The optimized path must be bit-identical and at least
``_MIN_SPEEDUP``x faster.  On the same corpus, one iterative rewriter
per subprogram must be no more than ``_SLOWDOWN_TOLERANCE``x slower
than the recursive reference of ``tests/test_stack_safety.py`` (which
also pins their terms and stats, and the deep chain).

Results go to ``BENCH_gates.json`` under ``hotpath``
(:func:`benchmarks.gates.record`).  Run with
``python -m pytest benchmarks/bench_hotpath.py -q -s``.
"""

import time

from repro.aes import refactored_package
from repro.logic import NormalizationCache, Rewriter, default_rules
from repro.vcgen import generate_obligations
from repro.vcgen.simplifier import TypeBoundHook

from benchmarks.gates import record
from tests.rewriter_reference import LinearRewriter
from tests.test_stack_safety import (
    _RecursiveRewriter, _deep_recursion_allowed,
)

#: The optimized configuration (indexing + cross-obligation cache) must
#: beat the linear-scan reference by at least this factor on the per-VC
#: fresh protocol (the acceptance floor; measured ~2.4x on an idle core).
_MIN_SPEEDUP = 1.3

#: The recursive reference must not be >25% faster than the iterative
#: engine on the realistic corpus (i.e. iterative is "no slower" modulo
#: timer noise on sub-second workloads).
_SLOWDOWN_TOLERANCE = 1.25

_ROUNDS = 5


def _corpus():
    typed = refactored_package()
    out = []
    for sp in typed.package.subprograms:
        obls = generate_obligations(typed, typed.signatures[sp.name])
        if obls:
            out.append((sp.name, [o.term for o in obls]))
    return typed, out


def _run_linear(typed, corpus, collect=None):
    """One fresh linear-scan rewriter per VC (the pre-PR-5 hot path)."""
    results = []
    for name, terms in corpus:
        hook = TypeBoundHook(typed, name)
        for t in terms:
            rw = LinearRewriter(default_rules(hook=hook))
            results.append(rw.normalize(t))
            if collect is not None:
                collect.append(rw.stats)
    return results


def _run_optimized(typed, corpus, collect=None):
    """One fresh indexed rewriter per VC sharing a per-subprogram
    normalization-cache scope (exactly what ``AutoProver._prove`` does
    through ``Simplifier(shared=...)``)."""
    cache = NormalizationCache()
    results = []
    for name, terms in corpus:
        hook = TypeBoundHook(typed, name)
        scope = cache.scope(f"bench|{name}|")
        for t in terms:
            rw = Rewriter(default_rules(hook=hook), shared=scope)
            results.append(rw.normalize(t))
            if collect is not None:
                collect.append(rw.stats)
    return results, cache


def _best_of(fn, rounds=_ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _microbench(typed, corpus):
    vc_count = sum(len(terms) for _, terms in corpus)

    # Differential gate first (also warms the interning table so the
    # timed rounds pay no construction costs).  Indexing alone must be
    # invisible: bit-identical normal forms AND bit-identical per-VC
    # RewriteStats (field(compare=False) on the instrumentation counters
    # means == compares exactly the semantic outcome: nodes, rewrites,
    # exhaustions).  The shared cache legitimately *skips* traversal
    # work, so its guarantee is result identity, not stats identity.
    lin_stats, idx_stats, opt_stats = [], [], []
    ref = _run_linear(typed, corpus, collect=lin_stats)
    idx = []
    for name, terms in corpus:
        hook = TypeBoundHook(typed, name)
        for t in terms:
            rw = Rewriter(default_rules(hook=hook))
            idx.append(rw.normalize(t))
            idx_stats.append(rw.stats)
    assert all(a is b for a, b in zip(ref, idx)), \
        "indexed rewriting diverged from the linear-scan reference"
    assert lin_stats == idx_stats, \
        "per-VC RewriteStats diverged between linear and indexed runs"
    got, cache = _run_optimized(typed, corpus, collect=opt_stats)
    assert all(a is b for a, b in zip(ref, got)), \
        "indexed+shared rewriting diverged from the linear-scan reference"
    assert len(ref) == len(got) == vc_count
    index_hits = sum(s.index_hits for s in opt_stats)
    index_skipped = sum(s.index_skipped_rules for s in opt_stats)
    cross_hits = sum(s.cross_vc_hits for s in opt_stats)
    assert index_hits > 0 and index_skipped > 0 and cross_hits > 0
    assert all(s.index_hits == 0 and s.cross_vc_hits == 0
               for s in lin_stats)

    linear_s = _best_of(lambda: _run_linear(typed, corpus))
    optimized_s = _best_of(lambda: _run_optimized(typed, corpus))
    lookups = cache.hits + cache.misses
    return {
        "subprograms": len(corpus),
        "vcs": vc_count,
        "linear_ms": round(linear_s * 1000, 3),
        "optimized_ms": round(optimized_s * 1000, 3),
        "speedup": round(linear_s / optimized_s, 3),
        "work_units": sum(s.work for s in opt_stats),
        "index_hits": index_hits,
        "index_skipped_rules": index_skipped,
        "cross_vc_hits": cross_hits,
        "norm_cache_hit_rate": round(cache.hits / lookups, 4)
        if lookups else 0.0,
        "norm_cache_entries": len(cache),
    }


def _per_subprogram(typed, corpus, rewriter_cls):
    """One rewriter per subprogram (the stack-safety differential's
    protocol)."""
    for name, terms in corpus:
        rw = rewriter_cls(default_rules(hook=TypeBoundHook(typed, name)))
        for t in terms:
            rw.normalize(t)


def _recursion_race(typed, corpus):
    with _deep_recursion_allowed():
        recursive_s = _best_of(
            lambda: _per_subprogram(typed, corpus, _RecursiveRewriter))
    iterative_s = _best_of(lambda: _per_subprogram(typed, corpus, Rewriter))
    return {
        "recursive_ms": round(recursive_s * 1000, 3),
        "iterative_ms": round(iterative_s * 1000, 3),
        "ratio": round(iterative_s / recursive_s, 3),
    }


def bench_hotpath_indexing():
    typed, corpus = _corpus()
    micro = _microbench(typed, corpus)
    race = _recursion_race(typed, corpus)

    print()
    print(f"corpus            {micro['vcs']} VCs over "
          f"{micro['subprograms']} subprograms")
    print(f"linear scan       {micro['linear_ms']:.1f} ms (per-VC fresh)")
    print(f"indexed+shared    {micro['optimized_ms']:.1f} ms "
          f"(speedup {micro['speedup']:.2f}x; "
          f"{micro['index_skipped_rules']} rule scans skipped, "
          f"{micro['cross_vc_hits']} cross-VC hits, "
          f"cache hit rate {100 * micro['norm_cache_hit_rate']:.1f}%)")
    print(f"recursive         {race['recursive_ms']:.1f} ms "
          f"(one rewriter per subprogram)")
    print(f"iterative         {race['iterative_ms']:.1f} ms "
          f"({race['ratio']:.2f}x recursive)")
    record("hotpath", {
        "min_speedup": _MIN_SPEEDUP,
        "max_recursive_ratio": _SLOWDOWN_TOLERANCE,
        "rewrite_microbench": micro,
        "iterative_vs_recursive": race,
    })

    assert micro["speedup"] >= _MIN_SPEEDUP, (
        f"indexed+shared speedup {micro['speedup']:.2f}x below the "
        f"{_MIN_SPEEDUP}x floor over the linear-scan reference")
    assert race["ratio"] <= _SLOWDOWN_TOLERANCE, (
        f"iterative normalize {race['iterative_ms']:.1f} ms vs recursive "
        f"{race['recursive_ms']:.1f} ms exceeds the "
        f"{_SLOWDOWN_TOLERANCE}x tolerance")
