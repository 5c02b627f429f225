"""Verification-service integration tests: admission, streaming,
priority lanes, backpressure, the daemon's warm caches, journal replay
(in-process and after a real ``kill -9``), and the differential gate
pinning daemon verdicts to the serial batch reference."""

import asyncio
import json
import shutil

import pytest

from repro.exec import ExecConfig
from repro.lang import analyze, parse_package
from repro.prover import ImplementationProof
from repro.serve import (
    ProtocolError, ServeConfig, VerificationService,
)
from repro.serve.client import ClientError, ServeClient

# the scheduler-test fixture package: two loop procedures whose
# invariant VCs genuinely reach the auto prover
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


def submit_msg(**overrides):
    message = {"op": "submit", "kind": "prove",
               "package": {"source": SRC}}
    message.update(overrides)
    return message


def verdict_keys(result_message):
    return [(v["subprogram"], v["vc"], v["vc_kind"], v["stage"],
             v["proved"]) for v in result_message["result"]["verdicts"]]


def batch_reference_keys(source=SRC, subprograms=None):
    typed = analyze(parse_package(source))
    outcomes = ImplementationProof(
        typed, exec=ExecConfig(jobs=1, backend="serial",
                               cache=False)).run(subprograms).outcomes
    return [(o.vc.subprogram, o.vc.name, o.vc.kind, o.stage,
             o.result.proved if o.result else None) for o in outcomes]


_FRESH_REFERENCE = {}


def fresh_process_reference_keys(source=SRC):
    """Serial batch reference computed in a fresh interpreter.

    ``Term.__hash__`` is the interning sequence number, so prover set
    iteration (and with it auto-proof search order) follows the global
    interning history of the process.  A daemon subprocess starts from
    a clean intern table; a reference computed inside this long-lived
    pytest process can diverge from it once earlier tests have populated
    the table (pre-existing engine behaviour, not serve-specific).  The
    subprocess-daemon comparisons therefore pin both sides to the same
    clean-interpreter state.
    """
    if source in _FRESH_REFERENCE:
        return _FRESH_REFERENCE[source]
    import json
    import os
    import subprocess
    import sys
    script = (
        "import json, sys\n"
        "from repro.exec import ExecConfig\n"
        "from repro.lang import analyze, parse_package\n"
        "from repro.prover import ImplementationProof\n"
        "typed = analyze(parse_package(sys.stdin.read()))\n"
        "outcomes = ImplementationProof(typed, exec=ExecConfig(\n"
        "    jobs=1, backend='serial', cache=False)).run(None).outcomes\n"
        "print(json.dumps([[o.vc.subprogram, o.vc.name, o.vc.kind,\n"
        "                   o.stage,\n"
        "                   o.result.proved if o.result else None]\n"
        "                  for o in outcomes]))\n")
    src_dir = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src_dir)
    process = subprocess.run(
        [sys.executable, "-c", script], input=source, env=env,
        capture_output=True, text=True, timeout=300, check=True)
    keys = [tuple(row) for row in json.loads(process.stdout)]
    _FRESH_REFERENCE[source] = keys
    return keys


async def run_service(config, body):
    service = VerificationService(config)
    await service.start()
    try:
        return await body(service)
    finally:
        await service.stop()


class TestServiceCore:
    def test_submit_stream_result(self, tmp_path):
        async def body(service):
            outbox = asyncio.Queue()
            accepted = await service.submit(submit_msg(), outbox)
            assert accepted["reply"] == "accepted"
            assert accepted["lane"] == "bulk"
            result = await service.wait(accepted["id"])
            messages = []
            while not outbox.empty():
                messages.append(outbox.get_nowait())
            return accepted, result, messages

        accepted, result, messages = asyncio.run(
            run_service(ServeConfig(state_dir=tmp_path / "state"), body))
        assert result["status"] == "ok"
        assert result["result"]["total_vcs"] == 12
        assert result["result"]["auto_discharged"] > 0
        # events stream strictly before the terminal result, and carry
        # the exec taxonomy (submitted/started/finished per obligation)
        assert messages[-1]["reply"] == "result"
        events = [m["event"] for m in messages[:-1]]
        assert events and all(m["reply"] == "event"
                              for m in messages[:-1])
        assert {e["event"] for e in events} >= {"submitted", "finished"}
        assert sum(result["exec_stats"]["obligations"].values()) >= 1

    def test_daemon_matches_batch_reference(self, tmp_path):
        async def body(service):
            accepted = await service.submit(submit_msg())
            return await service.wait(accepted["id"])

        result = asyncio.run(
            run_service(ServeConfig(state_dir=tmp_path / "state"), body))
        assert verdict_keys(result) == batch_reference_keys()

    def test_examine_request(self):
        async def body(service):
            accepted = await service.submit(submit_msg(kind="examine"))
            assert accepted["lane"] == "interactive"
            return await service.wait(accepted["id"])

        result = asyncio.run(run_service(ServeConfig(), body))
        assert result["status"] == "ok"
        assert result["result"]["feasible"] is True
        assert result["result"]["vc_count"] > 0
        names = [s["name"] for s in result["result"]["subprograms"]]
        assert names == ["Invert", "Invert_Twice"]

    def test_error_requests_still_reply(self):
        async def body(service):
            bad_source = await service.submit(submit_msg(
                package={"source": "package Broken"}))
            bad_name = await service.submit(submit_msg(
                subprograms=["Nonexistent"]))
            return (await service.wait(bad_source["id"]),
                    await service.wait(bad_name["id"]))

        source_result, name_result = asyncio.run(
            run_service(ServeConfig(), body))
        assert source_result["status"] == "error"
        assert "analyze" in source_result["error"]
        assert name_result["status"] == "error"
        assert "Nonexistent" in name_result["error"]

    def test_duplicate_id_rejected(self):
        async def body(service):
            await service.submit(submit_msg(id="job-1"))
            with pytest.raises(ProtocolError) as err:
                await service.submit(submit_msg(id="job-1"))
            assert err.value.code == "duplicate_id"
            await service.wait("job-1")

        asyncio.run(run_service(ServeConfig(), body))

    def test_unknown_id(self):
        async def body(service):
            with pytest.raises(ProtocolError) as err:
                await service.wait("ghost")
            assert err.value.code == "unknown_id"

        asyncio.run(run_service(ServeConfig(), body))


class TestLanesAndBackpressure:
    def test_backpressure_bounded_queue(self):
        # bulk has zero workers: everything queues, nothing drains
        config = ServeConfig(lanes={"interactive": 1, "bulk": 0},
                             max_queue=2)

        async def body(service):
            await service.submit(submit_msg())
            await service.submit(submit_msg())
            with pytest.raises(ProtocolError) as err:
                await service.submit(submit_msg())
            assert err.value.code == "backpressure"
            # the interactive lane is unaffected by bulk's full queue
            accepted = await service.submit(submit_msg(kind="examine"))
            result = await service.wait(accepted["id"])
            assert result["status"] == "ok"
            assert service.board.depth("bulk") == 2

        asyncio.run(run_service(config, body))

    def test_interactive_dispatches_ahead_of_queued_bulk(self):
        # one worker in each lane; flood bulk, then submit interactive:
        # the interactive request must not wait for bulk's backlog
        config = ServeConfig(max_queue=16)

        async def body(service):
            for _ in range(4):
                await service.submit(submit_msg())
            accepted = await service.submit(submit_msg(kind="examine"))
            result = await service.wait(accepted["id"])
            snapshot = service.board.snapshot()
            # interactive finished while bulk work was still backlogged
            assert result["status"] == "ok"
            assert snapshot["interactive"]["served"] == 1
            pending = service.board.pending_ids()
            return pending

        pending = asyncio.run(run_service(config, body))
        # run_service stopped the service; queued bulk work simply drains
        # on shutdown or stays pending -- nothing crashed
        assert isinstance(pending, dict)

    def test_lane_capacity_caps_concurrency(self):
        config = ServeConfig(lanes={"interactive": 1, "bulk": 1})

        async def body(service):
            accepted = [await service.submit(submit_msg())
                        for _ in range(3)]
            results = [await service.wait(a["id"]) for a in accepted]
            assert all(r["status"] == "ok" for r in results)
            snapshot = service.board.snapshot()
            assert snapshot["bulk"]["served"] == 3
            assert snapshot["bulk"]["max_depth"] >= 2   # work queued up

        asyncio.run(run_service(config, body))


class TestWarmState:
    def test_repeat_request_runs_warm(self, tmp_path):
        """The daemon's one result cache and normalization cache serve
        every request: a repeat of a request runs fully warm, and the
        verdicts are the cold run's."""
        config = ServeConfig(state_dir=tmp_path / "state")

        async def body(service):
            first = await service.submit(submit_msg())
            cold = await service.wait(first["id"])
            cold_hits = service.result_cache.hits
            again = await service.submit(submit_msg())
            warm = await service.wait(again["id"])
            assert service.result_cache.hits > cold_hits
            assert service.norm_cache.hits > 0
            return cold, warm, service.status()["cache"]

        cold, warm, cache = asyncio.run(run_service(config, body))
        assert warm["exec_stats"]["cache_misses"] == 0
        assert warm["exec_stats"]["cache_hits"] == \
            sum(warm["exec_stats"]["obligations"].values())
        assert verdict_keys(cold) == verdict_keys(warm)
        assert cache["result_entries"] > 0 and cache["result_hits"] > 0
        # the disk tier is state_dir/cache itself, sharded by key prefix
        assert any((tmp_path / "state" / "cache").glob("*/*.json"))

    def test_namespaced_state_dir_starts_cleanly(self, tmp_path):
        """A state dir laid out by the multi-tenant daemon keeps its
        verdicts under ``cache/<namespace>/`` and its manifests under
        ``manifest/<namespace>/``.  The daemon starts on it, reads none
        of those entries (the first incremental request is a cold
        manifest miss with no cache hit), and writes its own beside
        them."""
        state = tmp_path / "state"

        def prove(request_id):
            async def body(service):
                accepted = await service.submit(
                    submit_msg(id=request_id, incremental=True))
                return await service.wait(accepted["id"])
            return asyncio.run(run_service(ServeConfig(state_dir=state),
                                           body))

        prove("a")
        for store in ("cache", "manifest"):
            tenant = state / store / "public"
            tenant.mkdir()
            for entry in list((state / store).iterdir()):
                if entry != tenant:
                    shutil.move(str(entry), str(tenant / entry.name))
        old_manifest = (state / "manifest" / "public" / "P.json").read_text()

        result = prove("b")
        assert result["status"] == "ok"
        assert result["result"]["incremental"]["incr_manifest_miss"] == 1
        assert result["exec_stats"]["cache_hits"] == 0
        assert verdict_keys(result) == batch_reference_keys()
        assert (state / "manifest" / "P.json").is_file()
        assert (state / "manifest" / "public" / "P.json").read_text() \
            == old_manifest


class TestReplay:
    def test_in_process_replay(self, tmp_path):
        state = tmp_path / "state"

        # phase 1: bulk lane is admit-only -- the request is journaled
        # and queued but cannot run; "crash" by abandoning the service
        async def admit_only(service):
            accepted = await service.submit(submit_msg(id="job-1"))
            assert accepted["durable"] is True
            assert service.board.depth("bulk") == 1

        asyncio.run(run_service(
            ServeConfig(state_dir=state,
                        lanes={"interactive": 1, "bulk": 0}),
            admit_only))

        # phase 2: restart with bulk capacity; the journal replays and
        # the request runs to a verdict identical to the batch reference
        async def replay(service):
            result = await service.wait("job-1")
            assert result["status"] == "ok"
            # duplicate-id protection survives the restart
            with pytest.raises(ProtocolError):
                await service.submit(submit_msg(id="job-1"))
            return result

        service = VerificationService(ServeConfig(state_dir=state))

        async def body(_service):
            return await replay(_service)

        async def main():
            replayed = await service.start()
            assert replayed == 1
            try:
                return await body(service)
            finally:
                await service.stop()

        result = asyncio.run(main())
        assert verdict_keys(result) == batch_reference_keys()
        # phase 3: the stored result survives; nothing replays again
        third = VerificationService(ServeConfig(state_dir=state))

        async def idle():
            assert await third.start() == 0
            stored = await third.wait("job-1")
            await third.stop()
            return stored

        assert asyncio.run(idle())["id"] == "job-1"

    def test_start_reads_the_journal_once(self, tmp_path, monkeypatch):
        """Start-up takes the pending requests and the known ids (for
        duplicate-id rejection) from one replay: one read of the journal
        and one scan of the result store."""
        from repro.serve import Journal, QueueItem, normalize_submit

        state = tmp_path / "state"
        journal = Journal(state)
        request = normalize_submit(submit_msg(id="done-1"), "done-1")
        journal.append_enqueue(QueueItem(
            request_id="done-1", lane="bulk", request=request,
            enqueued_wall=0.0))
        journal.write_result("done-1", {"reply": "result", "id": "done-1"})
        journal.append_done("done-1", "ok")
        calls = []
        for name in ("replay", "result_ids"):
            real = getattr(Journal, name)
            monkeypatch.setattr(
                Journal, name,
                lambda self, _real=real, _name=name:
                    (calls.append(_name), _real(self))[1])

        service = VerificationService(ServeConfig(
            state_dir=state, lanes={"interactive": 1, "bulk": 0}))

        async def main():
            assert await service.start() == 0
            try:
                with pytest.raises(ProtocolError):
                    await service.submit(submit_msg(id="done-1"))
            finally:
                await service.stop()

        asyncio.run(main())
        assert calls == ["replay", "result_ids"]

    @pytest.mark.parametrize("removed, backend, reason", [
        ("thread", "thread", "backend must be one of"),
        ("namespace", "process", "unknown submit keys: ['namespace']"),
        ("remote", "remote", "unknown submit keys: ['namespace']"),
    ], ids=["thread", "namespace", "remote"])
    def test_replayed_request_naming_removed_backend_fails_cleanly(
            self, tmp_path, removed, backend, reason):
        """A journal written before a removal may hold a pending request
        naming what is gone: ``"backend": "thread"``, or -- written by
        the multi-tenant daemon -- a ``namespace`` on the record and the
        request, possibly with ``"backend": "remote"``.  Replay turns it
        into a failed result that names the field instead of a dead
        worker, and the daemon goes on to serve the next request."""
        from repro.serve import normalize_submit

        state = tmp_path / "state"
        request = normalize_submit(submit_msg(id="old-1"), "old-1")
        request["exec"] = {"jobs": 2, "backend": backend}
        record = {"op": "enqueue", "id": "old-1", "lane": "bulk",
                  "request": request, "t": 0.0}
        if removed != "thread":
            request["namespace"] = record["namespace"] = "alice"
        state.mkdir()
        (state / "journal.jsonl").write_text(json.dumps(record) + "\n")

        async def body(service):
            stale = await service.wait("old-1")
            accepted = await service.submit(submit_msg(id="new-1"))
            assert accepted["durable"] is True
            return stale, await service.wait("new-1")

        service = VerificationService(ServeConfig(state_dir=state))

        async def main():
            assert await service.start() == 1
            try:
                return await body(service)
            finally:
                await service.stop()

        stale, fresh = asyncio.run(main())
        assert stale["status"] == "error"
        assert reason in stale["error"]
        assert fresh["status"] == "ok"
        assert verdict_keys(fresh) == batch_reference_keys()


@pytest.mark.slow
class TestDaemonSubprocess:
    """The CI smoke suite (satellite): a real daemon subprocess driven
    over stdio by the thin client, including ``kill -9`` replay."""

    def test_examine_and_prove_match_batch(self, tmp_path):
        client = ServeClient.spawn("--state-dir", str(tmp_path / "state"))
        try:
            assert client.ping("hello")["payload"] == "hello"
            examine = client.submit(kind="examine",
                                    package={"source": SRC})
            assert examine["lane"] == "interactive"
            examine_result = client.wait(examine["id"], timeout=120)
            assert examine_result["status"] == "ok"
            assert examine_result["result"]["feasible"] is True

            prove = client.submit(kind="prove", package={"source": SRC})
            prove_result = client.wait(prove["id"], timeout=120)
            assert prove_result["status"] == "ok"
            assert verdict_keys(prove_result) == \
                fresh_process_reference_keys()
            events = client.events_for(prove["id"])
            assert {e["event"] for e in events} >= \
                {"submitted", "started", "finished"}

            status = client.status()
            assert status["lanes"]["bulk"]["served"] == 1
            assert status["lanes"]["interactive"]["served"] == 1
            with pytest.raises(ClientError):
                client.submit(kind="prove", package={"corpus": "none"})
            client.shutdown()
        finally:
            client.close()
        assert client.process.returncode == 0

    def test_kill_9_replay_completes(self, tmp_path):
        state = str(tmp_path / "state")
        # bulk admit-only: the request is journaled, acknowledged, and
        # deterministically still pending when the daemon dies
        first = ServeClient.spawn("--state-dir", state,
                                  "--lanes", "interactive=1,bulk=0")
        try:
            accepted = first.submit(kind="prove",
                                    package={"source": SRC},
                                    id="durable-1")
            assert accepted["durable"] is True
        finally:
            first.process.kill()
            first.close()
        assert first.process.returncode == -9

        second = ServeClient.spawn("--state-dir", state)
        try:
            assert second.status()["replayed"] == 1
            result = second.wait("durable-1", timeout=120)
            assert result["status"] == "ok"
            assert verdict_keys(result) == fresh_process_reference_keys()
            second.shutdown()
        finally:
            second.close()

        # a third start serves the stored result without re-running
        third = ServeClient.spawn("--state-dir", state)
        try:
            assert third.status()["replayed"] == 0
            assert third.wait("durable-1", timeout=30)["id"] == "durable-1"
            third.shutdown()
        finally:
            third.close()

    def test_flag_validation_kills_daemon_loudly(self, tmp_path):
        import subprocess
        import sys
        import os
        src_dir = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src_dir)
        for flags in (["--max-queue", "0"], ["--lanes", "express=9"],
                      ["--jobs", "0"]):
            process = subprocess.run(
                [sys.executable, "-m", "repro.serve", *flags],
                env=env, capture_output=True, text=True, timeout=60)
            assert process.returncode != 0
            assert "error:" in process.stderr


@pytest.mark.slow
class TestAESDifferentialGate:
    """Daemon verdicts on the sampled AES corpus must be bit-identical
    to the serial batch reference -- both lanes, warm and cold, and after
    a journal replay -- and the warm repeat must clear
    ``_MIN_WARM_SPEEDUP``."""

    #: A warm repeat of a request is a pure cache replay; it
    #: must beat the cold first request by at least this factor.
    _MIN_WARM_SPEEDUP = 2.0

    def test_sampled_corpus_identical_across_lanes_and_warmth(
            self, tmp_path):
        from repro.aes.annotations import annotated_package
        from repro.aes.proof_scripts import aes_proof_scripts

        typed = annotated_package()
        sample = sorted(typed.signatures)[:6]
        scripts = aes_proof_scripts()
        reference = ImplementationProof(
            typed, scripts=scripts,
            exec=ExecConfig(jobs=1, backend="serial",
                            cache=False)).run(sample)
        reference_keys = [
            (o.vc.subprogram, o.vc.name, o.vc.kind, o.stage,
             o.result.proved if o.result else None)
            for o in reference.outcomes]

        def submit(lane="bulk", **extra):
            return {"op": "submit", "kind": "prove",
                    "package": {"corpus": "aes"},
                    "subprograms": sample, "lane": lane, **extra}

        async def body(service):
            results = []
            for lane in ("bulk", "interactive", "bulk"):   # third = warm
                accepted = await service.submit(submit(lane))
                results.append(await service.wait(accepted["id"]))
            return results

        results = asyncio.run(run_service(ServeConfig(), body))

        # replay: admitted into a zero-capacity bulk lane (journaled,
        # acknowledged, never run), abandoned, replayed by a new service
        state = tmp_path / "state"

        async def admit_only(service):
            await service.submit(submit(id="replayed-1"))

        asyncio.run(run_service(
            ServeConfig(state_dir=state,
                        lanes={"interactive": 1, "bulk": 0}), admit_only))
        replayer = VerificationService(ServeConfig(state_dir=state))

        async def replay():
            assert await replayer.start() == 1
            try:
                return await replayer.wait("replayed-1")
            finally:
                await replayer.stop()

        results.append(asyncio.run(replay()))
        for result in results:
            assert result["status"] == "ok"
            assert verdict_keys(result) == reference_keys
        # the warm repeat really was warm, and fast
        cold, warm = results[0], results[2]
        assert warm["exec_stats"]["cache_misses"] == 0
        assert warm["exec_stats"]["cache_hits"] == \
            sum(warm["exec_stats"]["obligations"].values())
        assert cold["run_seconds"] >= \
            self._MIN_WARM_SPEEDUP * warm["run_seconds"], (
                f"warm repeat {warm['run_seconds']:.3f} s vs cold "
                f"{cold['run_seconds']:.3f} s: below the "
                f"{self._MIN_WARM_SPEEDUP}x floor")
