"""Serve-layer unit tests: protocol validation, lane/config flag
parsing (the ``--jobs 0`` loud-failure discipline), the durable
journal, atomic writes, live event subscription, ExecConfig codecs."""

import json
import os
import threading

import pytest

from repro.exec import (
    ExecConfig, RetryPolicy, Telemetry, atomic_write_json,
    atomic_write_text, percentile,
)
from repro.exec import events as ev
from repro.serve import (
    DEFAULT_LANES, Journal, ProtocolError, QueueItem, ServeConfig,
    decode_line, default_lane, encode_message, normalize_submit,
    parse_lanes,
)
from repro.protocol import PROTOCOL_VERSION, check_protocol_version
from repro.serve.cli import build_config

SOURCE = "package P is end P;"


def submit_msg(**overrides):
    message = {"op": "submit", "kind": "prove",
               "package": {"source": SOURCE}}
    message.update(overrides)
    return message


class TestWireFormat:
    def test_round_trip(self):
        line = encode_message({"op": "ping", "payload": 1})
        assert line.endswith("\n") and "\n" not in line[:-1]
        assert decode_line(line) == {"op": "ping", "payload": 1}

    def test_bytes_accepted(self):
        assert decode_line(b'{"op":"status"}\n') == {"op": "status"}

    def test_not_json(self):
        with pytest.raises(ProtocolError) as err:
            decode_line("{nope\n")
        assert err.value.code == "bad_request"

    def test_not_object(self):
        with pytest.raises(ProtocolError):
            decode_line("[1,2]\n")

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as err:
            decode_line('{"op":"frobnicate"}\n')
        assert "op" in err.value.detail

    def test_oversize_line(self):
        with pytest.raises(ProtocolError) as err:
            decode_line('{"op":"ping","pad":"' + "x" * (9 << 20) + '"}\n')
        assert "exceeds" in err.value.detail


class TestProtocolVersioning:
    """The shared version surface (repro.protocol): the serve daemon
    tolerates version-less clients, rejects mismatched ones, and the
    serve layer re-exports the shared constants unchanged."""

    def test_absent_version_tolerated(self):
        # version-1 clients predate the field entirely
        assert decode_line('{"op":"status"}\n') == {"op": "status"}
        check_protocol_version(None, surface="t")

    def test_current_version_accepted(self):
        message = decode_line(
            '{"op":"status","protocol":%d}\n' % PROTOCOL_VERSION)
        assert message["protocol"] == PROTOCOL_VERSION

    def test_mismatched_version_rejected(self):
        with pytest.raises(ProtocolError) as err:
            decode_line('{"op":"status","protocol":1}\n')
        assert err.value.code == "protocol_mismatch"
        assert str(PROTOCOL_VERSION) in err.value.detail

    def test_required_mode_rejects_absent_version(self):
        # the farm handshake refuses version-less workers
        with pytest.raises(ProtocolError) as err:
            check_protocol_version(None, surface="farm", required=True)
        assert err.value.code == "protocol_mismatch"

    def test_serve_reexports_the_shared_surface(self):
        import repro.protocol as shared
        import repro.serve.protocol as serve_protocol

        assert serve_protocol.PROTOCOL_VERSION is shared.PROTOCOL_VERSION
        assert serve_protocol.ERROR_CODES is shared.ERROR_CODES
        assert serve_protocol.ProtocolError is shared.ProtocolError
        assert serve_protocol.encode_message is shared.encode_message
        assert "protocol_mismatch" in shared.ERROR_CODES
        assert "quarantined" in shared.ERROR_CODES

    def test_error_envelope_round_trip(self):
        err = ProtocolError("protocol_mismatch", "skewed", request_id="r1")
        message = err.to_message()
        assert message == {"reply": "error", "code": "protocol_mismatch",
                           "detail": "skewed", "id": "r1"}

    def test_error_message_shape(self):
        message = ProtocolError("backpressure", "full", "r1").to_message()
        assert message == {"reply": "error", "code": "backpressure",
                           "detail": "full", "id": "r1"}


class TestNormalizeSubmit:
    def test_defaults(self):
        req = normalize_submit(submit_msg())
        assert req["kind"] == "prove"
        assert req["lane"] == "bulk"       # proofs default to bulk
        assert req["namespace"] == "public"
        assert req["scripts"] is True
        assert req["id"] is None

    def test_examine_defaults_interactive(self):
        assert default_lane("examine") == "interactive"
        req = normalize_submit(submit_msg(kind="examine"))
        assert req["lane"] == "interactive"

    def test_explicit_lane_override(self):
        req = normalize_submit(submit_msg(lane="interactive"))
        assert req["lane"] == "interactive"

    def test_bad_kind(self):
        with pytest.raises(ProtocolError):
            normalize_submit(submit_msg(kind="transmogrify"))

    def test_bad_lane(self):
        with pytest.raises(ProtocolError):
            normalize_submit(submit_msg(lane="express"))

    def test_namespace_must_be_path_safe(self):
        # The namespace names an on-disk cache directory: traversal and
        # separator characters must never reach the filesystem.
        for bad in ("../evil", "a/b", "", ".hidden", "a" * 65, 7):
            with pytest.raises(ProtocolError):
                normalize_submit(submit_msg(namespace=bad))

    def test_package_required(self):
        with pytest.raises(ProtocolError):
            normalize_submit({"op": "submit", "kind": "prove"})

    def test_package_source_xor_corpus(self):
        with pytest.raises(ProtocolError):
            normalize_submit(submit_msg(
                package={"source": SOURCE, "corpus": "aes"}))

    def test_unknown_corpus(self):
        with pytest.raises(ProtocolError):
            normalize_submit(submit_msg(package={"corpus": "des"}))

    def test_refactor_requires_corpus(self):
        with pytest.raises(ProtocolError):
            normalize_submit(submit_msg(kind="refactor"))
        req = normalize_submit(submit_msg(kind="refactor",
                                          package={"corpus": "aes"}))
        assert req["package"] == {"corpus": "aes"}

    def test_subprograms_validated(self):
        req = normalize_submit(submit_msg(subprograms=["Invert"]))
        assert req["subprograms"] == ["Invert"]
        for bad in ([], [1], "Invert"):
            with pytest.raises(ProtocolError):
                normalize_submit(submit_msg(subprograms=bad))

    def test_params_ranges(self):
        req = normalize_submit(submit_msg(
            kind="refactor", package={"corpus": "aes"},
            params={"upto": 3, "trials": 2}))
        assert req["params"] == {"upto": 3, "trials": 2}
        for bad in ({"upto": 15}, {"upto": -1}, {"trials": 0},
                    {"trials": 10001}, {"bogus": 1}, "x"):
            with pytest.raises(ProtocolError):
                normalize_submit(submit_msg(
                    kind="refactor", package={"corpus": "aes"},
                    params=bad))

    def test_exec_validated_but_kept_as_data(self):
        req = normalize_submit(submit_msg(exec={"jobs": 2,
                                                "backend": "process"}))
        assert req["exec"] == {"jobs": 2, "backend": "process"}
        # float and bool counts too: a journaled request would otherwise
        # replay them into the pool
        for bad in ({"jobs": 0}, {"backend": "thread"}, {"jobs": 2.5},
                    {"timeout_seconds": True},
                    {"retries": {"retries": True}}):
            with pytest.raises(ProtocolError) as exc:
                normalize_submit(submit_msg(exec=bad))
            assert exc.value.code == "bad_request"
        # Removed ExecConfig fields are unknown keys, named as such.
        for key, value in (("cache_memory_entries", 10),
                           ("lease_timeout_seconds", 1.0),
                           ("remote_shared_cache", False),
                           ("batch_bytes_cap", 1024)):
            with pytest.raises(ProtocolError) as exc:
                normalize_submit(submit_msg(exec={key: value}))
            assert exc.value.code == "bad_request"
            assert f"unknown exec config keys: ['{key}']" in \
                exc.value.detail
        # RetryPolicy's backoff factor and jitter are module constants.
        for key in ("factor", "jitter"):
            with pytest.raises(ProtocolError) as exc:
                normalize_submit(submit_msg(
                    exec={"retries": {"retries": 1, key: 0.5}}))
            assert exc.value.code == "bad_request"
            assert "bad retries policy" in exc.value.detail
            assert key in exc.value.detail

    def test_exec_cannot_name_caches(self):
        # The isolation boundary: a request must never smuggle a cache
        # (someone else's namespace) or telemetry object reference in.
        for key in ("cache", "telemetry"):
            with pytest.raises(ProtocolError):
                normalize_submit(submit_msg(exec={key: "anything"}))

    def test_client_id_validated(self):
        assert normalize_submit(submit_msg(id="job-1"))["id"] == "job-1"
        with pytest.raises(ProtocolError):
            normalize_submit(submit_msg(id="../sneaky"))


class TestLanesParsing:
    def test_valid(self):
        assert parse_lanes("interactive=2,bulk=1") == \
            {"interactive": 2, "bulk": 1}
        # unmentioned lanes get zero workers (admit-only)
        assert parse_lanes("interactive=1") == \
            {"interactive": 1, "bulk": 0}

    @pytest.mark.parametrize("spec", [
        "", "  ", "interactive", "express=1", "interactive=1,interactive=2",
        "interactive=x",
    ])
    def test_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_lanes(spec)


class TestServeConfig:
    def test_defaults(self):
        config = ServeConfig()
        assert config.lanes == DEFAULT_LANES
        assert config.max_queue == 64

    @pytest.mark.parametrize("max_queue", [0, -1, True, "many"])
    def test_bad_max_queue(self, max_queue):
        # Same stance as --jobs 0: a queue bound of 0 would reject every
        # submit as backpressure; fail loudly at construction.
        with pytest.raises(ValueError):
            ServeConfig(max_queue=max_queue)

    def test_bad_lanes(self):
        with pytest.raises(ValueError):
            ServeConfig(lanes={"express": 1})
        with pytest.raises(ValueError):
            ServeConfig(lanes={"interactive": 0, "bulk": 0})
        with pytest.raises(ValueError):
            ServeConfig(lanes={"interactive": -1, "bulk": 2})

    @pytest.mark.parametrize("spec", ["interactive=-1", "interactive=0,bulk=0"])
    def test_lanes_spec_bounds(self, spec):
        # parse_lanes checks only the syntax; the bounds are the config's.
        lanes = parse_lanes(spec)
        with pytest.raises(ValueError):
            ServeConfig(lanes=lanes)

    def test_bad_default_exec(self):
        with pytest.raises(TypeError):
            ServeConfig(default_exec={"jobs": 2})


class TestCliFlags:
    def test_defaults(self):
        config = build_config([])
        assert config.lanes == DEFAULT_LANES
        assert config.max_queue == 64
        assert config.state_dir is None

    def test_full_parse(self, tmp_path):
        config = build_config([
            "--state-dir", str(tmp_path), "--lanes", "interactive=2,bulk=3",
            "--max-queue", "9", "--jobs", "4", "--backend", "serial",
            "--timeout", "2.5", "--telemetry-out", str(tmp_path / "t.json"),
        ])
        assert config.lanes == {"interactive": 2, "bulk": 3}
        assert config.max_queue == 9
        assert config.default_exec.jobs == 4
        assert config.default_exec.backend == "serial"
        assert config.default_exec.timeout_seconds == 2.5

    @pytest.mark.parametrize("argv", [
        ["--max-queue", "0"], ["--max-queue", "lots"],
        ["--lanes", "express=1"], ["--lanes", "interactive=0,bulk=0"],
        ["--lanes", "interactive"], ["--jobs", "0"], ["--jobs", "x"],
        ["--backend", "quantum"], ["--timeout", "-1"],
        ["--timeout", "soon"], ["--lanes", "interactive=-1"],
    ])
    def test_rejections_are_loud(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            build_config(argv)
        assert err.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestAtomicWrites:
    def test_write_and_replace(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(target, "one")
        assert target.read_text() == "one"
        atomic_write_text(target, "two")
        assert target.read_text() == "two"
        # no temp-file droppings
        assert os.listdir(tmp_path) == ["out.json"]

    def test_json_helper(self, tmp_path):
        target = tmp_path / "payload.json"
        atomic_write_json(target, {"a": [1, 2]})
        assert json.loads(target.read_text()) == {"a": [1, 2]}

    def test_failure_cleans_up(self, tmp_path):
        class Boom:
            def __repr__(self):
                raise RuntimeError("unserializable")
        with pytest.raises(TypeError):
            atomic_write_json(tmp_path / "x.json", {"bad": object()})
        assert os.listdir(tmp_path) == []


class TestEventSubscription:
    def test_live_delivery_and_close(self):
        telemetry = Telemetry()
        seen = []
        subscription = telemetry.subscribe(seen.append)
        telemetry.record(ev.SUBMITTED, "vc", "a")
        telemetry.record(ev.FINISHED, "vc", "a", wall=0.1)
        subscription.close()
        telemetry.record(ev.SUBMITTED, "vc", "b")
        assert [e.event for e in seen] == ["submitted", "finished"]
        assert not subscription.active

    def test_context_manager(self):
        telemetry = Telemetry()
        seen = []
        with telemetry.subscribe(seen.append):
            telemetry.record(ev.SUBMITTED, "vc", "a")
        telemetry.record(ev.SUBMITTED, "vc", "b")
        assert len(seen) == 1

    def test_raising_subscriber_is_detached_not_fatal(self):
        telemetry = Telemetry()

        def explode(event):
            raise RuntimeError("subscriber bug")

        subscription = telemetry.subscribe(explode)
        telemetry.record(ev.SUBMITTED, "vc", "a")   # must not raise
        assert not subscription.active
        assert isinstance(subscription.error, RuntimeError)
        # the log itself is unaffected
        assert len(telemetry.events()) == 1

    def test_delivery_from_recorder_thread(self):
        telemetry = Telemetry()
        threads = []
        telemetry.subscribe(
            lambda e: threads.append(threading.current_thread().name))
        worker = threading.Thread(
            target=lambda: telemetry.record(ev.SUBMITTED, "vc", "a"),
            name="recorder")
        worker.start()
        worker.join()
        assert threads == ["recorder"]

    def test_percentile_export(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
        assert percentile([], 0.5) == 0.0


class TestExecConfigCodec:
    def test_round_trip(self):
        config = ExecConfig(jobs=3, backend="process", timeout_seconds=1.5,
                            retries=RetryPolicy(retries=2),
                            on_error="record")
        clone = ExecConfig.from_json(config.to_json())
        assert clone.jobs == 3 and clone.backend == "process"
        assert clone.timeout_seconds == 1.5
        assert clone.retries.retries == 2
        assert clone.on_error == "record"

    def test_json_is_plain_data(self):
        json.dumps(ExecConfig(retries=RetryPolicy()).to_json())

    def test_unknown_keys_rejected(self):
        for payload in ({"cache": None}, {"telemetry": None},
                        {"jobz": 1}, "x", [1]):
            with pytest.raises((ValueError, TypeError)):
                ExecConfig.from_json(payload)


class TestJournal:
    def item(self, request_id, lane="bulk"):
        return QueueItem(request_id=request_id, lane=lane,
                         namespace="default",
                         request={"kind": "prove", "id": request_id},
                         enqueued_wall=1.0)

    def test_memory_only_shell(self):
        journal = Journal(None)
        assert not journal.durable
        journal.append_enqueue(self.item("a"))
        assert journal.replay() == ([], set())

    def test_replay_pending_only(self, tmp_path):
        journal = Journal(tmp_path)
        journal.append_enqueue(self.item("a"))
        journal.append_enqueue(self.item("b", lane="interactive"))
        journal.append_done("a", "ok")
        pending, _ = Journal(tmp_path).replay()
        assert [item.request_id for item in pending] == ["b"]
        assert pending[0].lane == "interactive"
        assert pending[0].request == {"kind": "prove", "id": "b"}

    def test_result_file_counts_as_done(self, tmp_path):
        # crash after write_result but before append_done: the persisted
        # result is authoritative, the request must not re-run
        journal = Journal(tmp_path)
        journal.append_enqueue(self.item("a"))
        journal.write_result("a", {"reply": "result", "id": "a"})
        assert Journal(tmp_path).replay() == ([], {"a"})
        assert Journal(tmp_path).load_result("a")["id"] == "a"

    def test_torn_final_line_tolerated(self, tmp_path):
        journal = Journal(tmp_path)
        journal.append_enqueue(self.item("a"))
        journal.append_enqueue(self.item("b"))
        with open(journal.journal_path, "a") as handle:
            handle.write('{"op":"enqueue","id":"torn","la')   # kill -9 mid-write
        pending, _ = Journal(tmp_path).replay()
        assert [item.request_id for item in pending] == ["a", "b"]

    def test_compact(self, tmp_path):
        journal = Journal(tmp_path)
        for name in "abc":
            journal.append_enqueue(self.item(name))
        journal.append_done("a", "ok")
        journal.append_done("b", "error")
        pending, _ = journal.replay()
        journal.compact(pending)
        lines = journal.journal_path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["id"] == "c"

    def test_known_ids_across_restart(self, tmp_path):
        journal = Journal(tmp_path)
        journal.append_enqueue(self.item("a"))
        journal.write_result("b", {"reply": "result", "id": "b"})
        journal.append_done("b", "ok")
        assert Journal(tmp_path).replay()[1] == {"a", "b"}
