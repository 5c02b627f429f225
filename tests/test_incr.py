"""Incremental re-verification tests (DESIGN.md §15).

Three concerns, each pinned against the serial cold reference:

* **replay identity** -- an incremental run after an edit (none,
  body-only, spec-only, rename-only, seeded defect) must produce
  verdicts bit-identical to a cold run on the same source, while
  replaying exactly the unchanged cone;
* **degradation** -- every defective-manifest path (absent, truncated,
  garbage, wrong schema, wrong configuration scope, evicted cache
  entries, caching disabled) must fall back to a full re-run, never a
  wrong or missing verdict;
* the PR's serve-client satellites: ``ServeClient.wait`` timeout
  semantics (``Optional[float]``, fail-fast on a dead reader, suppressed
  exception chaining) and the monotonic queue-latency measurement.
"""

import asyncio
import json
import os
import random
import threading
import time

import pytest

from repro.exec import ExecConfig, ResultCache, Telemetry
from repro.incr import (
    MANIFEST_SCHEMA, ManifestStore, cone_fingerprints, plan_incremental,
    run_config_digest,
)
from repro.lang import analyze, parse_package
from repro.prover import ImplementationProof
from repro.serve import ProtocolError, ServeConfig, VerificationService
from repro.serve.client import ClientError, ServeClient
from repro.serve.journal import QueueItem
from repro.serve.protocol import normalize_submit
from repro.vcgen import ExaminerLimits

SRC = """
package P is
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

   procedure Invert_Twice (A : in Arr; B : out Arr)
   --# post for all K in 0 .. 7 => (B (K) = A (K));
   is
   begin
      for I in 0 .. 7 loop
         --# assert for all K in 0 .. I - 1 => (B (K) = A (K));
         B (I) := (A (I) xor 255) xor 255;
      end loop;
   end Invert_Twice;
end P;
"""

#: A body-only edit of Invert_Twice: a different (still correct)
#: double-inversion constant, so only Invert_Twice's cone changes.
SRC_BODY_EDIT = SRC.replace("(A (I) xor 255) xor 255",
                            "(A (I) xor 170) xor 170 xor 255 xor 255")

#: A spec-only edit of Invert: the same postcondition with the equality
#: flipped -- different text (and VCs), same meaning.
SRC_SPEC_EDIT = SRC.replace(
    "post for all K in 0 .. 7 => (B (K) = (A (K) xor 255));",
    "post for all K in 0 .. 7 => ((A (K) xor 255) = B (K));")

#: A rename-only edit: Invert_Twice (referenced by nothing) renamed.
SRC_RENAME = SRC.replace("Invert_Twice", "Twice_Invert")


def serial(cache):
    return ExecConfig(jobs=1, backend="serial", cache=cache)


def run_proof(source, *, manifest=None, incremental=False, cache=False,
              limits=None, typed=None):
    typed = typed if typed is not None else analyze(parse_package(source))
    return ImplementationProof(
        typed, exec=serial(cache), manifest=manifest,
        incremental=incremental, limits=limits).run()


def keys(result):
    return [(o.vc.subprogram, o.vc.name, o.vc.kind, o.stage,
             o.result.proved if o.result else None)
            for o in result.outcomes]


class TestReplayIdentity:
    def test_unchanged_rerun_replays_everything(self, tmp_path):
        cache = ResultCache()
        first = run_proof(SRC, manifest=tmp_path / "m", cache=cache)
        assert first.incremental is None   # not an incremental session
        second = run_proof(SRC, manifest=tmp_path / "m",
                           incremental=True, cache=cache)
        stats = second.incremental
        assert stats.replayed_vcs == first.total_vcs == 12
        assert stats.rechecked_vcs == 0
        assert stats.manifest_miss == 0
        assert stats.replayed_subprograms == 2
        assert keys(second) == keys(first)
        # positional/report identity, not just verdicts
        assert list(second.report.per_subprogram) == \
            list(first.report.per_subprogram)
        assert second.report.generated_bytes == first.report.generated_bytes
        assert second.report.simplified_bytes == \
            first.report.simplified_bytes
        assert second.auto_percent == first.auto_percent

    def test_body_edit_rechecks_only_changed_cone(self, tmp_path):
        cache = ResultCache()
        run_proof(SRC, manifest=tmp_path / "m", cache=cache)
        incr = run_proof(SRC_BODY_EDIT, manifest=tmp_path / "m",
                         incremental=True, cache=cache)
        assert incr.incremental.replayed_subprograms == 1   # Invert
        assert incr.incremental.rechecked_subprograms == 1
        assert incr.incremental.replayed_vcs == 6
        assert keys(incr) == keys(run_proof(SRC_BODY_EDIT))

    def test_spec_only_edit_rechecks_only_changed_cone(self, tmp_path):
        cache = ResultCache()
        run_proof(SRC, manifest=tmp_path / "m", cache=cache)
        incr = run_proof(SRC_SPEC_EDIT, manifest=tmp_path / "m",
                         incremental=True, cache=cache)
        assert incr.incremental.replayed_subprograms == 1   # Invert_Twice
        assert incr.incremental.rechecked_subprograms == 1
        assert keys(incr) == keys(run_proof(SRC_SPEC_EDIT))

    def test_rename_only_edit_never_replays_stale_names(self, tmp_path):
        # A rename changes the package's signature context, so *every*
        # cone re-checks -- conservative, and above all never a verdict
        # attributed to a name that no longer exists.
        cache = ResultCache()
        run_proof(SRC, manifest=tmp_path / "m", cache=cache)
        incr = run_proof(SRC_RENAME, manifest=tmp_path / "m",
                         incremental=True, cache=cache)
        assert incr.incremental.manifest_miss == 0
        assert incr.incremental.replayed_vcs == 0
        assert keys(incr) == keys(run_proof(SRC_RENAME))
        assert {o.vc.subprogram for o in incr.outcomes} == \
            {"Invert", "Twice_Invert"}

    def test_seeded_defect_edit_matches_cold(self, tmp_path):
        from repro.defects.seeder import random_mutation
        cache = ResultCache()
        typed = analyze(parse_package(SRC))
        run_proof(SRC, manifest=tmp_path / "m", cache=cache, typed=typed)
        mutation = random_mutation(typed, random.Random(7))
        assert mutation is not None
        incr = run_proof(None, manifest=tmp_path / "m", incremental=True,
                         cache=cache, typed=analyze(mutation.package))
        cold = run_proof(None, typed=analyze(mutation.package))
        assert keys(incr) == keys(cold)
        # the defective subprogram went through the full path
        assert incr.incremental.rechecked_subprograms >= 1

    def test_replay_is_fully_warm(self, tmp_path):
        # The replayed run must not re-examine: its wall time collapses
        # and the examiner never touches the replayed subprograms.
        cache = ResultCache()
        cold = run_proof(SRC, manifest=tmp_path / "m", cache=cache)
        warm = run_proof(SRC, manifest=tmp_path / "m", incremental=True,
                         cache=cache)
        assert warm.incremental.rechecked_vcs == 0
        assert warm.wall_seconds < cold.wall_seconds
        # replayed analyses carry the recorded scalars, zeroed hot-path
        for name, analysis in warm.report.per_subprogram.items():
            ref = cold.report.per_subprogram[name]
            assert analysis.work_units == ref.work_units
            assert analysis.index_hits == 0


class TestDegradation:
    def _warm(self, tmp_path, cache):
        first = run_proof(SRC, manifest=tmp_path / "m", cache=cache)
        return first, ManifestStore(tmp_path / "m").path_for("P")

    def test_truncated_manifest_degrades_to_full_run(self, tmp_path):
        cache = ResultCache()
        first, path = self._warm(tmp_path, cache)
        raw = path.read_text()
        path.write_text(raw[:len(raw) // 2])   # torn by a foreign writer
        incr = run_proof(SRC, manifest=tmp_path / "m", incremental=True,
                         cache=cache)
        assert incr.incremental.manifest_miss == 1
        assert incr.incremental.replayed_vcs == 0
        assert keys(incr) == keys(first)

    def test_garbage_manifest_degrades(self, tmp_path):
        cache = ResultCache()
        first, path = self._warm(tmp_path, cache)
        path.write_text("{this is not json")
        incr = run_proof(SRC, manifest=tmp_path / "m", incremental=True,
                         cache=cache)
        assert incr.incremental.manifest_miss == 1
        assert keys(incr) == keys(first)

    def test_wrong_schema_degrades(self, tmp_path):
        cache = ResultCache()
        first, path = self._warm(tmp_path, cache)
        data = json.loads(path.read_text())
        data["schema"] = "repro-incr/v0"
        path.write_text(json.dumps(data))
        incr = run_proof(SRC, manifest=tmp_path / "m", incremental=True,
                         cache=cache)
        assert incr.incremental.manifest_miss == 1
        assert keys(incr) == keys(first)

    def test_different_config_scope_degrades(self, tmp_path):
        # A manifest written under different examiner limits (a different
        # run_config_digest scope) must never validate.
        cache = ResultCache()
        first, _ = self._warm(tmp_path, cache)
        incr = run_proof(
            SRC, manifest=tmp_path / "m", incremental=True, cache=cache,
            limits=ExaminerLimits(max_wp_statements=100_001))
        assert incr.incremental.manifest_miss == 1
        assert keys(incr) == keys(first)

    def test_evicted_cache_entries_degrade(self, tmp_path):
        cache = ResultCache()
        first, _ = self._warm(tmp_path, cache)
        cache.clear()   # every recorded verdict evicted
        incr = run_proof(SRC, manifest=tmp_path / "m", incremental=True,
                         cache=cache)
        assert incr.incremental.manifest_miss == 0
        assert incr.incremental.evicted_fallbacks == 2
        assert incr.incremental.replayed_vcs == 0
        assert keys(incr) == keys(first)

    def test_caching_disabled_degrades(self, tmp_path):
        cache = ResultCache()
        first, _ = self._warm(tmp_path, cache)
        incr = run_proof(SRC, manifest=tmp_path / "m", incremental=True,
                         cache=False)
        assert incr.incremental.evicted_fallbacks == 2
        assert keys(incr) == keys(first)

    def test_partial_eviction_falls_back_per_subprogram(self, tmp_path):
        # Evict exactly one recorded verdict: its subprogram re-checks,
        # the other still replays.
        cache = ResultCache()
        first, path = self._warm(tmp_path, cache)
        data = json.loads(path.read_text())
        victim = next(row["cache_key"]
                      for row in data["subprograms"]["Invert"]["vcs"]
                      if row["cache_key"])
        cache._memory.pop(victim)
        incr = run_proof(SRC, manifest=tmp_path / "m", incremental=True,
                         cache=cache)
        assert incr.incremental.evicted_fallbacks == 1
        assert incr.incremental.replayed_subprograms == 1
        assert keys(incr) == keys(first)

    def test_store_misses_tell_torn_from_evicted(self, tmp_path):
        """The cold fallbacks read differently in telemetry: a torn
        manifest is one ``torn`` miss, evicted verdicts are one
        ``evicted`` miss per subprogram, a first run is ``absent``."""
        def misses(cache):
            telemetry = Telemetry()
            ImplementationProof(
                analyze(parse_package(SRC)), manifest=tmp_path / "m",
                incremental=True,
                exec=ExecConfig(jobs=1, cache=cache,
                                telemetry=telemetry)).run()
            return telemetry.stats().store_misses

        cache = ResultCache()
        assert misses(cache) == {"absent": 1}
        assert misses(cache) == {}
        path = ManifestStore(tmp_path / "m").path_for("P")
        manifest = path.read_text()
        path.write_text(manifest[:len(manifest) // 2])
        assert misses(cache) == {"torn": 1}
        cache.clear()
        assert misses(cache) == {"evicted": 2}

    def test_incremental_without_manifest_is_loud(self):
        typed = analyze(parse_package(SRC))
        with pytest.raises(ValueError, match="manifest"):
            ImplementationProof(typed, incremental=True)

    def test_manifest_store_load_paths(self, tmp_path):
        store = ManifestStore(tmp_path)
        assert store.load("P", "digest") is None          # absent
        store.save("P", "pkgfp", "digest", {})
        assert store.load("P", "digest")["schema"] == MANIFEST_SCHEMA
        assert store.load("P", "other-digest") is None    # wrong scope
        assert store.load("Q", "digest") is None          # wrong package

    def test_plan_requires_valid_entries(self):
        # A manifest whose entry rows are malformed degrades per
        # subprogram instead of crashing the planner.
        typed = analyze(parse_package(SRC))
        cones = cone_fingerprints(typed)
        manifest = {"subprograms": {
            "Invert": {"cone_fp": cones["Invert"],
                       "vcs": ["not-a-dict"]}}}
        replayed, stats = plan_incremental(
            manifest, typed, ["Invert", "Invert_Twice"], ResultCache())
        assert replayed == {}
        assert stats.evicted_fallbacks == 1
        assert stats.rechecked_subprograms == 2


class TestConeFingerprints:
    def test_body_edit_localizes(self):
        a = cone_fingerprints(analyze(parse_package(SRC)))
        b = cone_fingerprints(analyze(parse_package(SRC_BODY_EDIT)))
        assert a["Invert"] == b["Invert"]
        assert a["Invert_Twice"] != b["Invert_Twice"]

    def test_reference_closure_widens_cone(self):
        # A caller's cone includes its callee: editing the callee must
        # invalidate the caller too.
        src = SRC.replace("end P;", """
   function Helper (X : Byte) return Byte
   --# post Helper (X) = (X xor 255);
   is
   begin
      return X xor 255;
   end Helper;
end P;""")
        caller = src.replace("B (I) := A (I) xor 255;",
                             "B (I) := Helper (A (I));")
        a = cone_fingerprints(analyze(parse_package(caller)))
        edited = caller.replace("return X xor 255;",
                                "return 255 xor X;")
        b = cone_fingerprints(analyze(parse_package(edited)))
        assert a["Helper"] != b["Helper"]
        assert a["Invert"] != b["Invert"]          # cone includes Helper
        assert a["Invert_Twice"] == b["Invert_Twice"]

    def test_config_digest_covers_limits(self):
        assert run_config_digest("cfg", ExaminerLimits()) != \
            run_config_digest("cfg",
                              ExaminerLimits(max_wp_statements=7))
        assert run_config_digest("a") != run_config_digest("b")


# ---------------------------------------------------------------------------
# ServeClient.wait satellites
# ---------------------------------------------------------------------------

class _BlockingReadable:
    """A readable that blocks until fed lines (or closed)."""

    def __init__(self):
        self._queue = []
        self._cv = threading.Condition()
        self._done = False

    def feed(self, line: bytes):
        with self._cv:
            self._queue.append(line)
            self._cv.notify_all()

    def close(self):
        with self._cv:
            self._done = True
            self._cv.notify_all()

    def __iter__(self):
        return self

    def __next__(self):
        with self._cv:
            self._cv.wait_for(lambda: self._queue or self._done)
            if self._queue:
                return self._queue.pop(0)
            raise StopIteration


class _DyingReadable:
    """A readable whose iteration dies with a transport error -- the
    reader thread exits without ever seeing a clean end-of-stream."""

    def __iter__(self):
        return self

    def __next__(self):
        raise OSError("connection reset")


def make_client(readable, send_line=None):
    return ServeClient(send_line or (lambda data: None), lambda: None,
                       readable=readable)


class TestClientWait:
    def test_timeout_none_blocks_until_result(self):
        readable = _BlockingReadable()
        client = make_client(readable)
        result_line = json.dumps(
            {"reply": "result", "id": "r1", "status": "ok"}
        ).encode() + b"\n"
        threading.Timer(0.2, readable.feed, [result_line]).start()
        started = time.monotonic()
        message = client.wait("r1", timeout=None)
        assert message["status"] == "ok"
        assert time.monotonic() - started >= 0.15
        readable.close()

    def test_timeout_message_formats_seconds(self):
        client = make_client(_BlockingReadable())
        with pytest.raises(TimeoutError) as exc_info:
            client.wait("r1", timeout=0.05)
        assert "within 0.05s" in str(exc_info.value)
        assert "None" not in str(exc_info.value)

    def test_dead_reader_fails_fast(self):
        # Reader death without a clean close must resolve the wait
        # immediately as connection_closed, not after the full timeout.
        client = make_client(_DyingReadable())
        started = time.monotonic()
        with pytest.raises(ClientError) as exc_info:
            client.wait("r1", timeout=30.0)
        assert time.monotonic() - started < 5.0
        assert exc_info.value.message["code"] == "connection_closed"
        # `from None`: no misleading queue.Empty chained underneath
        assert exc_info.value.__suppress_context__

    def test_dead_transport_send_does_not_mask_closure(self):
        def broken_send(data):
            raise BrokenPipeError("stdin closed")
        client = make_client(_DyingReadable(), send_line=broken_send)
        started = time.monotonic()
        with pytest.raises(ClientError) as exc_info:
            client.wait("r1", timeout=30.0)
        assert time.monotonic() - started < 5.0
        assert exc_info.value.message["code"] == "connection_closed"


# ---------------------------------------------------------------------------
# Monotonic queue latency
# ---------------------------------------------------------------------------

TINY = "package T is procedure Noop is begin null; end Noop; end T;"


class TestQueueLatency:
    def test_queue_item_measures_on_monotonic(self):
        item = QueueItem(request_id="r1", lane="bulk", namespace="ns",
                         request={}, enqueued_wall=time.time())
        assert abs(item.enqueued_mono - time.monotonic()) < 1.0
        # the wire record carries wall time only; replay re-stamps
        replayed = QueueItem.from_json(item.to_json())
        assert "enqueued_mono" not in item.to_json()
        assert replayed.enqueued_mono >= item.enqueued_mono

    def test_queue_seconds_immune_to_wall_clock_steps(self):
        # A forward wall-clock step of an hour between admission and
        # dispatch: the old wall-delta measurement would report ~3600s
        # (or clamp a backward step to 0); the monotonic measurement
        # reports the actual queueing delay.
        async def body():
            service = VerificationService(ServeConfig())
            request = normalize_submit(
                {"op": "submit", "kind": "examine",
                 "package": {"source": TINY}, "id": "r1"})
            request["id"] = "r1"
            item = QueueItem(
                request_id="r1", lane="interactive", namespace="public",
                request=request,
                enqueued_wall=time.time() - 3600.0,   # clock stepped
                enqueued_mono=time.monotonic() - 0.25)
            await service._run_item("interactive", item)
            return service._results["r1"]

        message = asyncio.run(body())
        assert message["status"] == "ok"
        assert 0.2 <= message["queue_seconds"] < 60.0


# ---------------------------------------------------------------------------
# Serve-layer incremental prove
# ---------------------------------------------------------------------------

async def run_service(config, body):
    service = VerificationService(config)
    await service.start()
    try:
        return await body(service)
    finally:
        await service.stop()


def submit_msg(**overrides):
    message = {"op": "submit", "kind": "prove",
               "package": {"source": SRC}, "namespace": "alice"}
    message.update(overrides)
    return message


def verdict_keys(message):
    return [(v["subprogram"], v["vc"], v["vc_kind"], v["stage"],
             v["proved"]) for v in message["result"]["verdicts"]]


class TestServeIncremental:
    def test_incremental_prove_replays_on_second_request(self, tmp_path):
        async def body(service):
            first = await service.submit(
                submit_msg(id="a", incremental=True))
            cold = await service.wait(first["id"])
            second = await service.submit(
                submit_msg(id="b", incremental=True))
            warm = await service.wait(second["id"])
            return cold, warm

        cold, warm = asyncio.run(
            run_service(ServeConfig(state_dir=tmp_path / "state"), body))
        assert cold["status"] == warm["status"] == "ok"
        assert verdict_keys(warm) == verdict_keys(cold)
        assert cold["result"]["incremental"]["incr_manifest_miss"] == 1
        # the cold fallback's reason reaches the client
        assert cold["exec_stats"]["store_misses"] == {"absent": 1}
        assert warm["exec_stats"]["store_misses"] == {}
        stats = warm["result"]["incremental"]
        assert stats["incr_replayed"] == 12
        assert stats["incr_rechecked"] == 0
        # the manifest landed under the tenant's namespace
        assert (tmp_path / "state" / "manifest" / "alice"
                / "P.json").is_file()

    def test_incremental_is_tenant_scoped(self, tmp_path):
        async def body(service):
            first = await service.submit(
                submit_msg(id="a", incremental=True))
            await service.wait("a")
            second = await service.submit(
                submit_msg(id="b", incremental=True, namespace="bob"))
            return await service.wait("b")

        warm = asyncio.run(
            run_service(ServeConfig(state_dir=tmp_path / "state"), body))
        # bob has no manifest (and no warm cache): full cold run
        assert warm["result"]["incremental"]["incr_manifest_miss"] == 1
        assert warm["result"]["incremental"]["incr_replayed"] == 0

    def test_incremental_requires_durable_daemon(self):
        async def body(service):
            accepted = await service.submit(
                submit_msg(id="a", incremental=True))
            return await service.wait(accepted["id"])

        message = asyncio.run(run_service(ServeConfig(), body))
        assert message["status"] == "error"
        assert "durable" in message["error"]

    def test_protocol_validation(self):
        with pytest.raises(ProtocolError, match="boolean"):
            normalize_submit(submit_msg(incremental="yes"))
        with pytest.raises(ProtocolError, match="prove"):
            normalize_submit(submit_msg(kind="examine",
                                        incremental=True))
        assert normalize_submit(submit_msg())["incremental"] is False
        assert normalize_submit(
            submit_msg(incremental=True))["incremental"] is True
