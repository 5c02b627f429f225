"""Obligation cache tests: canonical fingerprints, hit/miss semantics on
real proof runs, defect-induced invalidation, and the on-disk store."""

import os
import time

import pytest

from repro.defects.curated import curated_defects
from repro.exec import (
    ExecConfig, ObligationScheduler, Obligation, ResultCache, Telemetry,
    make_key, package_fingerprint,
)
from repro.exec.durable import STALE_TMP_SECONDS
from repro.lang import analyze, parse_package
from repro.logic import add, canonical_text, fingerprint, intc, mk, var
from repro.prover import ImplementationProof


#: A package whose VCs survive examination: the loop-invariant VCs of
#: Invert reach the auto prover, so real ``vc`` obligations are scheduled
#: (trivially-simplified VCs never become obligations).
SMALL_PKG_SRC = """
package Cachey is
   type Byte is mod 256;
   type Arr is array (0 .. 7) of Byte;

   procedure Invert (A : in Arr; B : out Arr)
   --# post for all K in 0 .. 7 => (B (K) = (A (K) xor 255));
   is
   begin
      for I in 0 .. 7 loop
         --# assert for all K in 0 .. I - 1 => (B (K) = (A (K) xor 255));
         B (I) := A (I) xor 255;
      end loop;
   end Invert;
end Cachey;
"""


def small_package():
    return analyze(parse_package(SMALL_PKG_SRC))


class TestFingerprint:
    def test_commutative_order_independent(self):
        a, b = var("a"), var("b")
        left = mk("add", (a, b))
        right = mk("add", (b, a))
        # raw constructor: genuinely different nodes...
        assert left is not right
        # ...but one canonical digest.
        assert fingerprint(left) == fingerprint(right)

    def test_distinct_terms_distinct_digests(self):
        assert fingerprint(add(var("a"), intc(1))) != \
            fingerprint(add(var("a"), intc(2)))

    def test_canonical_text_sorts_commutative_args(self):
        a, b = var("a"), var("b")
        assert canonical_text(mk("add", (a, b))) == \
            canonical_text(mk("add", (b, a)))

    def test_stable_across_processes(self):
        """The digest must not depend on interning order or hash seed:
        recompute it in a subprocess with a different PYTHONHASHSEED and
        different construction history."""
        import subprocess
        import sys

        program = (
            "from repro.logic import add, intc, mul, var, fingerprint\n"
            # touch other terms first so interning ids differ
            "[mul(var('z%d' % i), intc(i)) for i in range(50)]\n"
            "t = add(mul(var('y'), intc(3)), var('x'), intc(7))\n"
            "print(fingerprint(t))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "12345"},
        ).stdout.strip()
        from repro.logic import mul
        here = fingerprint(add(mul(var("y"), intc(3)), var("x"), intc(7)))
        assert out == here


class TestObligationCacheOnProofs:
    def test_second_run_discharges_nothing(self):
        """Identical obligations hit the cache: the second implementation
        proof over the same package computes zero VC obligations and
        reproduces the first run's outcomes exactly."""
        cache = ResultCache()
        t1, t2 = Telemetry(), Telemetry()

        r1 = ImplementationProof(
            small_package(),
            exec=ExecConfig(cache=cache, telemetry=t1)).run()
        r2 = ImplementationProof(
            small_package(),
            exec=ExecConfig(cache=cache, telemetry=t2)).run()

        s1, s2 = t1.stats(), t2.stats()
        assert s1.computed.get("vc", 0) > 0
        assert s1.cache_hits == 0
        assert s2.computed.get("vc", 0) == 0          # warm: all cached
        assert s2.cached.get("vc", 0) == s1.computed["vc"]
        assert s2.hit_rate == 1.0

        assert [(o.vc.name, o.stage, o.result.proved if o.result else None)
                for o in r1.outcomes] == \
               [(o.vc.name, o.stage, o.result.proved if o.result else None)
                for o in r2.outcomes]
        assert r1.auto_percent == r2.auto_percent

    def test_seeded_defect_invalidates_fingerprint(self):
        """An AST mutation (a curated defect's source patch) changes the
        package fingerprint, so its obligations miss the cache."""
        from repro.aes.optimized import optimized_source

        source = optimized_source()
        defect = next(d for d in curated_defects() if d.optimized_patch)
        mutated = source
        for old, new in defect.optimized_patch:
            assert old in mutated, f"{defect.name}: patch site not found"
            mutated = mutated.replace(old, new, 1)
        assert mutated != source

        clean_fp = package_fingerprint(analyze(parse_package(source)))
        defect_fp = package_fingerprint(analyze(parse_package(mutated)))
        assert clean_fp != defect_fp

    def test_local_mutation_misses_cache(self):
        """End to end on the small package: mutate one expression and the
        affected obligation keys change (cache misses, recompute)."""
        cache = ResultCache()
        t1, t2 = Telemetry(), Telemetry()
        ImplementationProof(
            small_package(),
            exec=ExecConfig(cache=cache, telemetry=t1)).run()
        mutated = analyze(parse_package(
            SMALL_PKG_SRC.replace("B (I) := A (I) xor 255;",
                                  "B (I) := A (I) xor 254;")))
        ImplementationProof(
            mutated, exec=ExecConfig(cache=cache, telemetry=t2)).run()
        s2 = t2.stats()
        # the package fingerprint feeds every key: nothing can hit.
        assert s2.cache_hits == 0
        assert s2.computed.get("vc", 0) > 0


class TestDiskStore:
    def test_round_trip(self, tmp_path):
        store = tmp_path / "obcache"
        first = ResultCache(disk_dir=store)
        key = make_key("kind", "unit-test", "payload")
        first.put(key, {"stage": "auto", "result": [True, "eval", ""]},
                  encode=lambda v: v)
        # a fresh cache over the same directory sees the entry
        second = ResultCache(disk_dir=store)
        hit, value = second.get(key, decode=lambda p: p)
        assert hit
        assert value == {"stage": "auto", "result": [True, "eval", ""]}
        miss, _ = second.get(make_key("other"), decode=lambda p: p)
        assert not miss

    def test_warm_proof_from_disk_only(self, tmp_path):
        """A second process-equivalent run (fresh in-memory state, same
        disk directory) still discharges zero VC obligations."""
        t1, t2 = Telemetry(), Telemetry()
        ImplementationProof(
            small_package(),
            exec=ExecConfig(cache=ResultCache(disk_dir=tmp_path),
                            telemetry=t1)).run()
        ImplementationProof(
            small_package(),
            exec=ExecConfig(cache=ResultCache(disk_dir=tmp_path),
                            telemetry=t2)).run()
        assert t1.stats().computed.get("vc", 0) > 0
        assert t2.stats().computed.get("vc", 0) == 0

    def test_scheduler_ignores_disk_for_uncodable_obligations(self, tmp_path):
        """Obligations without codecs stay memory-only (no files)."""
        cache = ResultCache(disk_dir=tmp_path / "c")
        ob = Obligation(kind="vc", label="raw", thunk=lambda: 41 + 1,
                        cache_key=make_key("raw"))
        scheduler = ObligationScheduler(ExecConfig(jobs=1, cache=cache))
        [outcome] = scheduler.run([ob])
        assert outcome.ok and outcome.value == 42
        assert not list((tmp_path / "c").rglob("*.json"))


class TestTmpSweep:
    """Regression: ``*.tmp`` files orphaned by a writer that died between
    ``mkstemp`` and the atomic ``os.replace`` used to accumulate forever
    (``clear()`` only globbed ``*.json``)."""

    def _orphan(self, store, name, age_seconds=0.0):
        bucket = store / "ab"
        bucket.mkdir(parents=True, exist_ok=True)
        orphan = bucket / name
        orphan.write_text("{half-written")
        if age_seconds:
            old = time.time() - age_seconds
            os.utime(orphan, (old, old))
        return orphan

    def test_clear_sweeps_orphaned_tmp_files(self, tmp_path):
        store = tmp_path / "store"
        cache = ResultCache(disk_dir=store)
        key = make_key("sweep", "entry")
        cache.put(key, {"v": 1}, encode=lambda v: v)
        orphan = self._orphan(store, "stale0.tmp")
        cache.clear()
        assert not orphan.exists()
        assert not list(store.rglob("*.json"))

    def test_open_sweeps_only_stale_tmp_files(self, tmp_path):
        """On store open, old orphans go but a *young* temp file (a
        concurrent writer mid-publish) must survive."""
        store = tmp_path / "store"
        ResultCache(disk_dir=store)   # create the directory
        stale = self._orphan(store, "stale.tmp",
                             age_seconds=STALE_TMP_SECONDS + 60)
        fresh = self._orphan(store, "fresh.tmp")
        ResultCache(disk_dir=store)   # re-open: the sweep runs
        assert not stale.exists()
        assert fresh.exists()

    def test_crashed_writer_orphan_swept_then_store_still_works(
            self, tmp_path):
        store = tmp_path / "store"
        cache = ResultCache(disk_dir=store)
        self._orphan(store, "dead-writer.tmp",
                     age_seconds=STALE_TMP_SECONDS + 1)
        reopened = ResultCache(disk_dir=store)
        assert not list(store.rglob("*.tmp"))
        key = make_key("post", "sweep")
        reopened.put(key, {"v": 2}, encode=lambda v: v)
        hit, value = ResultCache(disk_dir=store).get(key, decode=lambda p: p)
        assert hit and value == {"v": 2}
