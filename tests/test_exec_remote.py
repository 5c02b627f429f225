"""Distributed proof-farm tests (DESIGN.md §16): scheduler semantics
over socket-connected workers, the versioned handshake, and the remote
failure matrix -- kill -9 mid obligation, lease expiry, flapping-host
quarantine, degradation to the process backend -- with verdicts
bit-identical to serial throughout."""

import contextlib
import os
import signal
import socket
import threading
import time

import pytest

from repro.exec import (
    CallPayload, ExecConfig, Obligation, ObligationScheduler, ResultCache,
    RetryPolicy, Telemetry, make_key,
)
from repro.exec.remote import Link, RemoteCoordinator
from repro.exec.remote.worker import REJECTED_EXIT, main, spawn_worker
from repro.exec.scheduler import BackendUnusableError
from repro.prover import ImplementationProof
from repro.protocol import PROTOCOL_VERSION

from tests.test_exec_scheduler import outcome_key

#: Repo root, prepended to worker PYTHONPATHs so ``tests.*`` payload
#: functions unpickle worker-side.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- module-level payload targets (picklable by qualified name) ------------

def _square(x):
    return x * x


def _pid_tag(x):
    return (os.getpid(), x)


def _boom(x):
    raise ValueError(f"boom {x}")


def _wait_for(path, value, limit=30.0):
    """Spin until ``path`` exists (a test-controlled release file)."""
    deadline = time.monotonic() + limit
    while not os.path.exists(path):
        if time.monotonic() >= deadline:
            raise RuntimeError(f"release file {path} never appeared")
        time.sleep(0.02)
    return value


def _ignore_alarm_and_wait(release, value):
    """Disarm the worker's per-obligation SIGALRM, then wait for the
    release file: a worker that no longer honours its timeout."""
    signal.signal(signal.SIGALRM, signal.SIG_IGN)
    return _wait_for(release, value)


def _write_pid_and_wait(marker, release, value, limit=30.0):
    """Publish the worker pid (so the test can kill -9 it), then wait
    for the release file.  The blamed re-run returns immediately.  The
    pid is published by rename, so the test never reads it half
    written."""
    with open(marker + ".tmp", "w") as handle:
        handle.write(str(os.getpid()))
    os.replace(marker + ".tmp", marker)
    return _wait_for(release, value, limit)


def _crash_once(sentinel, value):
    """Hard-kill the hosting worker the first time, succeed after."""
    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        os._exit(1)
    return value


# -- helpers ---------------------------------------------------------------

def _ob(label, payload, group=None, key=None):
    return Obligation(kind="test", label=label, thunk=payload.run,
                      cache_key=key, group=group, payload=payload)


def _scheduler(addresses, **kw):
    kw.setdefault("jobs", 4)
    kw.setdefault("backend", "remote")
    kw.setdefault("cache", False)
    kw.setdefault("telemetry", Telemetry())
    kw.setdefault("remote_workers", tuple(addresses))
    return ObligationScheduler(ExecConfig(**kw))


@contextlib.contextmanager
def farm(count=2, prefix="w"):
    """``count`` listen-mode workers; yields their addresses."""
    procs, addresses = [], []
    try:
        for i in range(count):
            proc, address = spawn_worker(listen="127.0.0.1:0",
                                         name=f"{prefix}{i}",
                                         pythonpath_extra=(ROOT,))
            procs.append(proc)
            addresses.append(address)
        yield addresses
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def _wait_until(predicate, limit=20.0, message="condition"):
    deadline = time.monotonic() + limit
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting: {message}"
        time.sleep(0.02)


def _details(telemetry, event):
    return [e.detail for e in telemetry.events() if e.event == event]


class TestRemoteScheduling:
    def test_results_in_input_order_off_host(self):
        with farm(2) as addresses:
            telemetry = Telemetry()
            outcomes = _scheduler(addresses, telemetry=telemetry).run(
                [_ob(f"p{i}", CallPayload(_pid_tag, (i,)))
                 for i in range(8)])
            assert [o.value[1] for o in outcomes] == list(range(8))
            assert all(o.status == "ok" for o in outcomes)
            # the work genuinely left the parent process
            assert all(o.value[0] != os.getpid() for o in outcomes)
            served_by = {d.split()[0] for d in _details(telemetry,
                                                        "finished")}
            assert served_by <= {"worker=w0", "worker=w1"}
            assert served_by

    def test_batched_dispatch_identical_to_unbatched(self):
        """§18 differential gate, remote edition: the same obligations
        produce identical outcomes whether the farm leases them one at a
        time or in batched units, and batching is visibly engaged."""
        with farm(2) as addresses:
            runs, telemetry = {}, {}
            for batch_size in (1, 8):
                telemetry[batch_size] = Telemetry()
                outcomes = _scheduler(
                    addresses, telemetry=telemetry[batch_size],
                    batch_size=batch_size).run(
                    [_ob(f"i{i}", CallPayload(_square, (i,)))
                     for i in range(12)])
                runs[batch_size] = [(o.status, o.value) for o in outcomes]
            assert runs[1] == runs[8] == [("ok", i * i) for i in range(12)]
            assert telemetry[1].stats().batched == 0
            assert telemetry[8].stats().batched >= 1
            assert telemetry[8].stats().batch_items >= 4

    def test_dispatch_units_independent_of_worker_timing(self):
        """Dispatch units are cut before anything ships, from the input
        order and the configuration alone: the same 12 obligations give
        the same multiset of ``items=K`` dispatches on every run of a
        backend -- on the farm even when the second worker joins late."""
        def units(telemetry):
            return sorted(d for d in _details(telemetry, "dispatched"))

        obs = [_ob(f"u{i}", CallPayload(_square, (i,))) for i in range(12)]
        process = []
        for _ in range(2):
            telemetry = Telemetry()
            outcomes = ObligationScheduler(ExecConfig(
                jobs=4, backend="process", cache=False,
                telemetry=telemetry)).run(obs)
            assert [o.value for o in outcomes] == [i * i
                                                   for i in range(12)]
            process.append(units(telemetry))
        assert process[0] == process[1] == ["items=3"] * 4

        remote = []
        for run in range(2):
            # Reserve a port for the late joiner: the coordinator dials
            # it from the start and connects once the worker is up.
            probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind(("127.0.0.1", 0))
            late_port = probe.getsockname()[1]
            probe.close()
            late = []
            timer = threading.Timer(0.3 * (run + 1), lambda: late.append(
                spawn_worker(listen=f"127.0.0.1:{late_port}",
                             name=f"late{run}",
                             pythonpath_extra=(ROOT,))[0]))
            with farm(1, prefix=f"early{run}-") as addresses:
                timer.start()
                try:
                    telemetry = Telemetry()
                    outcomes = _scheduler(
                        addresses + [f"127.0.0.1:{late_port}"],
                        telemetry=telemetry).run(obs)
                finally:
                    timer.cancel()
                    timer.join()
                    for proc in late:
                        proc.kill()
                        proc.wait()
            assert [o.value for o in outcomes] == [i * i
                                                   for i in range(12)]
            remote.append(units(telemetry))
        assert remote[0] == remote[1] == ["items=3"] * 4

    def test_groups_chain_serially(self):
        with farm(2) as addresses:
            outcomes = _scheduler(addresses).run(
                [_ob(f"g{i}", CallPayload(_pid_tag, (i,)), group="g")
                 for i in range(5)])
            assert [o.value[1] for o in outcomes] == list(range(5))

    def test_payloadless_obligation_runs_inline(self):
        with farm(1) as addresses:
            sentinel = []
            plain = Obligation(
                kind="test", label="inline",
                thunk=lambda: sentinel.append(os.getpid()) or 7)
            outcomes = _scheduler(addresses).run(
                [plain, _ob("shipped", CallPayload(_square, (3,)))])
            assert outcomes[0].value == 7
            assert sentinel == [os.getpid()]
            assert outcomes[1].value == 9

    def test_on_error_record_and_raise(self):
        with farm(1) as addresses:
            outcomes = _scheduler(addresses, on_error="record").run(
                [_ob("ok", CallPayload(_square, (3,))),
                 _ob("bad", CallPayload(_boom, (7,)))])
            assert outcomes[0].ok and outcomes[0].value == 9
            assert outcomes[1].status == "errored"
            assert "boom 7" in outcomes[1].error
            with pytest.raises(ValueError, match="boom 1"):
                _scheduler(addresses).run(
                    [_ob("bad", CallPayload(_boom, (1,)))])

    def test_parent_cache_round_trip(self):
        with farm(2) as addresses:
            cache = ResultCache()

            def obs():
                return [_ob(f"k{i}", CallPayload(_square, (i,)),
                            key=make_key("farm-cache", str(i)))
                        for i in range(4)]

            cold, warm = Telemetry(), Telemetry()
            first = _scheduler(addresses, cache=cache,
                               telemetry=cold).run(obs())
            second = _scheduler(addresses, cache=cache,
                                telemetry=warm).run(obs())
            assert [o.value for o in first] == [0, 1, 4, 9]
            assert [o.status for o in first] == ["ok"] * 4
            assert [o.status for o in second] == ["cached"] * 4
            assert [o.value for o in second] == [0, 1, 4, 9]
            # A worker result's detail reads ``worker=... keyed``.
            assert (cold.stats().cache_misses,
                    cold.stats().cache_hits) == (4, 0)
            assert (warm.stats().cache_misses,
                    warm.stats().cache_hits) == (0, 4)

    def test_uncached_rerun_recomputes_on_every_backend(self):
        """With the parent's cache off nothing answers for a payload: the
        second run of the same keyed obligations executes payloads that
        raise, so it is ``errored`` on serial, on process, and on a
        persistent listen-mode worker that computed the first run."""
        keys = [make_key("uncached-rerun", str(i)) for i in range(2)]

        def rerun(config):
            first = ObligationScheduler(config).run(
                [_ob(f"square{i}", CallPayload(_square, (i + 5,)), key=key)
                 for i, key in enumerate(keys)])
            second = ObligationScheduler(config).run(
                [_ob(f"boom{i}", CallPayload(_boom, (i,)), key=key)
                 for i, key in enumerate(keys)])
            assert [(o.status, o.value) for o in first] == \
                [("ok", 25), ("ok", 36)]
            return [o.status for o in second]

        def config(**kw):
            return ExecConfig(jobs=2, cache=False, on_error="record",
                              telemetry=Telemetry(), **kw)

        assert rerun(config(backend="serial")) == ["errored"] * 2
        assert rerun(config(backend="process")) == ["errored"] * 2
        with farm(1) as addresses:
            assert rerun(config(backend="remote",
                                remote_workers=tuple(addresses))) == \
                ["errored"] * 2

    def test_error_text_identical_on_every_backend(self):
        """A payload raising ``ValueError("boom 1")`` under
        ``on_error="record"`` and one retry: the outcome's error, the
        ``errored`` telemetry detail and the ``retried`` detail read the
        same on serial, process and remote (serial used to record the
        bare message as the ``errored`` detail)."""
        def texts(**kw):
            telemetry = Telemetry()
            outcomes = ObligationScheduler(ExecConfig(
                jobs=2, cache=False, on_error="record",
                retries=RetryPolicy(retries=1, base_delay=0.0),
                telemetry=telemetry, **kw)).run(
                [_ob("bad", CallPayload(_boom, (1,))),
                 _ob("ok", CallPayload(_square, (3,)))])
            assert [o.status for o in outcomes] == ["errored", "ok"]
            return (outcomes[0].error, _details(telemetry, "errored"),
                    _details(telemetry, "retried"))

        serial = texts(backend="serial")
        assert serial == ("ValueError: boom 1", ["ValueError: boom 1"],
                          ["boom 1"])
        assert texts(backend="process") == serial
        with farm(1) as addresses:
            assert texts(backend="remote",
                         remote_workers=tuple(addresses)) == serial


class TestRemoteHandshake:
    def _dial(self, coordinator):
        host, _, port = coordinator.bound_address.rpartition(":")
        return Link(socket.create_connection((host, int(port)),
                                             timeout=5.0))

    def test_version_mismatch_rejected(self):
        coordinator = RemoteCoordinator(listen="127.0.0.1:0")
        coordinator.start()
        try:
            link = self._dial(coordinator)
            link.send({"op": "hello", "protocol": PROTOCOL_VERSION + 1,
                       "name": "skewed", "pid": 1})
            reply = link.recv(timeout=5.0)
            assert reply["reply"] == "error"
            assert reply["code"] == "protocol_mismatch"
            link.close()
        finally:
            coordinator.stop()

    def test_missing_version_rejected(self):
        """Unlike serve clients, a remote worker must advertise its
        protocol version -- a silently version-skewed prover is worse
        than a stale dashboard."""
        coordinator = RemoteCoordinator(listen="127.0.0.1:0")
        coordinator.start()
        try:
            link = self._dial(coordinator)
            link.send({"op": "hello", "name": "mute", "pid": 1})
            reply = link.recv(timeout=5.0)
            assert reply["reply"] == "error"
            assert reply["code"] == "protocol_mismatch"
            link.close()
        finally:
            coordinator.stop()

    def test_duplicate_name_rejected(self):
        coordinator = RemoteCoordinator(listen="127.0.0.1:0")
        coordinator.start()
        try:
            first = self._dial(coordinator)
            first.send({"op": "hello", "protocol": PROTOCOL_VERSION,
                        "name": "twin", "pid": 1})
            welcome = first.recv(timeout=5.0)
            assert welcome["reply"] == "welcome"
            assert welcome["protocol"] == PROTOCOL_VERSION
            second = self._dial(coordinator)
            second.send({"op": "hello", "protocol": PROTOCOL_VERSION,
                         "name": "twin", "pid": 2})
            reply = second.recv(timeout=5.0)
            assert reply["reply"] == "error"
            assert reply["code"] == "duplicate_id"
            first.close()
            second.close()
        finally:
            coordinator.stop()

    def test_worker_exits_on_skewed_coordinator(self):
        """The worker side of the contract: a welcome carrying the wrong
        protocol version makes the worker exit REJECTED_EXIT instead of
        computing verdicts under a skewed schema."""
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        host, port = server.getsockname()
        proc, _ = spawn_worker(connect=f"{host}:{port}",
                               name="victim", pythonpath_extra=(ROOT,))
        try:
            conn, _ = server.accept()
            link = Link(conn)
            hello = link.recv(timeout=10.0)
            assert hello["op"] == "hello"
            assert hello["protocol"] == PROTOCOL_VERSION
            link.send({"reply": "welcome", "protocol": 99})
            assert proc.wait(timeout=15.0) == REJECTED_EXIT
            link.close()
        finally:
            server.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    @pytest.mark.parametrize("flag", [["--once"], ["--dial-timeout", "5"]])
    def test_removed_worker_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--connect", "127.0.0.1:1", *flag])
        assert err.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in \
            capsys.readouterr().err

    def test_previous_protocol_version_rejected(self):
        """Protocol 3 added the batched lease generation, protocol 4
        made it the only lease shape and protocol 5 dropped the batch
        envelope; an older hello therefore cannot be grandfathered in --
        a version-2 worker cannot decode a batch, a version-3 worker
        would misread a ``lease`` as solo, and a version-4 worker
        expects an envelope where a bare entry tuple arrives."""
        assert PROTOCOL_VERSION >= 5
        coordinator = RemoteCoordinator(listen="127.0.0.1:0")
        coordinator.start()
        try:
            for version in (2, 3, 4):
                link = self._dial(coordinator)
                link.send({"op": "hello", "protocol": version,
                           "name": f"relic{version}", "pid": 1})
                reply = link.recv(timeout=5.0)
                assert reply["reply"] == "error"
                assert reply["code"] == "protocol_mismatch"
                link.close()
        finally:
            coordinator.stop()

    def test_old_version_worker_process_exits_cleanly(self):
        """End to end: a worker binary from before the bare-entries lease
        (simulated by pinning ``PROTOCOL_VERSION = 4`` before the worker
        module binds it) dials a current coordinator and exits
        ``REJECTED_EXIT`` -- a clean, diagnosable rejection rather than
        a hang or a garbled lease."""
        import subprocess
        import sys as _sys
        coordinator = RemoteCoordinator(listen="127.0.0.1:0")
        coordinator.start()
        script = (
            "import sys, repro.protocol as protocol\n"
            "protocol.PROTOCOL_VERSION = 4\n"
            "from repro.exec.remote import worker\n"
            "sys.exit(worker.main(['--connect', sys.argv[1],"
            " '--name', 'relic']))\n")
        src = os.path.join(ROOT, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src, ROOT] + ([env["PYTHONPATH"]]
                           if env.get("PYTHONPATH") else []))
        try:
            proc = subprocess.Popen(
                [_sys.executable, "-c", script,
                 coordinator.bound_address], env=env)
            assert proc.wait(timeout=20.0) == REJECTED_EXIT
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            coordinator.stop()


class TestRemoteFailureMatrix:
    def test_kill9_mid_obligation_blames_and_reruns(self, tmp_path):
        """kill -9 on a worker mid-obligation: exactly that worker's
        in-flight leases are blamed and re-run solo on the survivor;
        every verdict still lands."""
        marker = str(tmp_path / "pid")
        release = str(tmp_path / "release")
        with farm(2, prefix="k") as addresses:
            telemetry = Telemetry()
            scheduler = _scheduler(addresses, jobs=4, telemetry=telemetry)
            obs = [_ob("slow", CallPayload(_write_pid_and_wait,
                                           (marker, release, 42)))]
            obs += [_ob(f"q{i}", CallPayload(_square, (i,)))
                    for i in range(6)]

            def assassin():
                _wait_until(lambda: os.path.exists(marker), 15.0,
                            "worker pid marker")
                with open(marker) as handle:
                    os.kill(int(handle.read()), signal.SIGKILL)
                with open(release, "w"):
                    pass

            killer = threading.Thread(target=assassin, daemon=True)
            killer.start()
            outcomes = scheduler.run(obs)
            killer.join(timeout=15.0)
            assert [o.status for o in outcomes] == ["ok"] * 7
            assert outcomes[0].value == 42
            assert [o.value for o in outcomes[1:]] == \
                [i * i for i in range(6)]
            crashed = _details(telemetry, "crashed")
            assert crashed and all("lost" in d for d in crashed)

    def test_lease_expiry_drops_worker_and_reruns(self, tmp_path,
                                                  monkeypatch):
        """A lease that outlives its deadline -- derived from
        ``timeout_seconds`` -- is treated as a dead host: the connection
        is closed, the obligation blamed and re-run after the worker
        rejoins.  The payload ignores its alarm, so only the lease bound
        (2 leases x 0.4 s x 1.5 + 0.2 s slack = 1.4 s) can end it."""
        monkeypatch.setattr(ObligationScheduler, "TIMEOUT_FALLBACK_SLACK",
                            0.2)
        release = str(tmp_path / "release")
        with farm(1, prefix="e") as addresses:
            telemetry = Telemetry()
            scheduler = _scheduler(addresses, jobs=1, telemetry=telemetry,
                                   timeout_seconds=0.4)
            timer = threading.Timer(
                3.0, lambda: open(release, "w").close())
            timer.start()
            try:
                outcomes = scheduler.run(
                    [_ob("stuck", CallPayload(_ignore_alarm_and_wait,
                                              (release, 7)))])
            finally:
                timer.cancel()
            assert outcomes[0].status == "ok" and outcomes[0].value == 7
            crashed = _details(telemetry, "crashed")
            assert any("lease expired" in d for d in crashed)

    def test_flapping_worker_quarantined(self, tmp_path):
        """A worker that loses in-flight leases twice is quarantined by
        name: its re-registration is rejected (the respawned process
        exits REJECTED_EXIT) and the remaining work completes on a
        replacement worker, verdicts intact."""
        s1 = str(tmp_path / "s1")
        s2 = str(tmp_path / "s2")
        proc_a, address_a = spawn_worker(listen="127.0.0.1:0",
                                         name="flappy",
                                         pythonpath_extra=(ROOT,))
        port_a = int(address_a.rpartition(":")[2])
        # Reserve a port for the replacement worker so its address can be
        # dialed from the start (the dialer retries until it exists).
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind(("127.0.0.1", 0))
        port_b = probe.getsockname()[1]
        probe.close()
        state = {"a": proc_a, "b": None, "rejected_rc": None,
                 "error": None}

        def supervise():
            try:
                for _ in range(2):          # two crash deaths
                    state["a"].wait()
                    state["a"], _ = spawn_worker(
                        listen=f"127.0.0.1:{port_a}", name="flappy",
                        pythonpath_extra=(ROOT,))
                # The second respawn re-registers a quarantined name:
                # rejected at the handshake.
                state["rejected_rc"] = state["a"].wait()
                state["b"], _ = spawn_worker(
                    listen=f"127.0.0.1:{port_b}", name="backup",
                    pythonpath_extra=(ROOT,))
            except Exception as exc:   # noqa: BLE001 - surfaced below
                state["error"] = exc

        supervisor = threading.Thread(target=supervise, daemon=True)
        supervisor.start()
        telemetry = Telemetry()
        try:
            scheduler = _scheduler(
                (address_a, f"127.0.0.1:{port_b}"), jobs=2,
                telemetry=telemetry)
            outcomes = scheduler.run(
                [_ob("c1", CallPayload(_crash_once, (s1, 1)), group="g"),
                 _ob("c2", CallPayload(_crash_once, (s2, 2)), group="g")])
            supervisor.join(timeout=20.0)
            assert state["error"] is None
            assert not supervisor.is_alive()
            assert [o.status for o in outcomes] == ["ok", "ok"]
            assert [o.value for o in outcomes] == [1, 2]
            assert state["rejected_rc"] == REJECTED_EXIT
            quarantined = [e for e in telemetry.events()
                           if e.event == "quarantined"]
            assert any(e.label == "worker:flappy" for e in quarantined)
            finished = _details(telemetry, "finished")
            assert any("worker=backup" in d for d in finished)
        finally:
            for proc in (state["a"], state["b"]):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait()

    def test_no_workers_raises_backend_unusable(self, monkeypatch):
        monkeypatch.setattr(RemoteCoordinator, "WORKER_GRACE", 0.3)
        scheduler = ObligationScheduler(ExecConfig(
            jobs=2, backend="remote", remote_listen="127.0.0.1:0",
            cache=False, telemetry=Telemetry()))
        with pytest.raises(BackendUnusableError, match="no workers"):
            scheduler.run([_ob("x", CallPayload(_square, (2,)))])

    def test_degrades_to_process_backend(self, monkeypatch):
        """The extended degradation chain: an unusable farm falls back
        to the process backend and finishes the run there."""
        monkeypatch.setattr(RemoteCoordinator, "WORKER_GRACE", 0.3)
        telemetry = Telemetry()
        scheduler = ObligationScheduler(ExecConfig(
            jobs=2, backend="remote", remote_listen="127.0.0.1:0",
            on_backend_failure="degrade", cache=False,
            telemetry=telemetry))
        outcomes = scheduler.run(
            [_ob(f"d{i}", CallPayload(_square, (i,))) for i in range(4)])
        assert [o.value for o in outcomes] == [0, 1, 4, 9]
        degraded = [e for e in telemetry.events()
                    if e.event == "degraded"]
        assert degraded and degraded[0].label == "remote->process"
        assert "no workers" in degraded[0].detail


class TestRemoteDifferential:
    """The acceptance gate: backend='remote' verdicts are bit-identical
    to serial on the sampled AES corpus -- cold, warm (the parent's
    cache), and after a worker crash."""

    def _keys(self, result):
        return [outcome_key(o) for o in result.outcomes]

    def test_sampled_aes_corpus_identical_cold_warm_crashed(self):
        from repro.aes.annotations import annotated_package
        from repro.aes.proof_scripts import aes_proof_scripts

        typed = annotated_package()
        sample = sorted(typed.signatures)[:6]
        scripts = aes_proof_scripts()

        def run(config):
            return ImplementationProof(typed, scripts=scripts,
                                       exec=config).run(sample)

        serial = run(ExecConfig(jobs=1, backend="serial", cache=False))
        assert serial.total_vcs > 0
        with farm(2, prefix="aes") as addresses:
            shared = ResultCache()
            cold = run(ExecConfig(jobs=4, backend="remote",
                                  remote_workers=tuple(addresses),
                                  cache=shared))
            warm = run(ExecConfig(jobs=4, backend="remote",
                                  remote_workers=tuple(addresses),
                                  cache=shared))
            assert self._keys(cold) == self._keys(serial)
            assert self._keys(warm) == self._keys(serial)

    def test_aes_verdicts_survive_worker_loss(self):
        from repro.aes.annotations import annotated_package
        from repro.aes.proof_scripts import aes_proof_scripts

        typed = annotated_package()
        sample = sorted(typed.signatures)[:4]
        scripts = aes_proof_scripts()

        def run(config):
            return ImplementationProof(typed, scripts=scripts,
                                       exec=config).run(sample)

        serial = run(ExecConfig(jobs=1, backend="serial", cache=False))
        with farm(2, prefix="loss") as addresses:
            baseline = run(ExecConfig(jobs=4, backend="remote",
                                      remote_workers=tuple(addresses),
                                      cache=False))
            assert self._keys(baseline) == self._keys(serial)
        with farm(1, prefix="half") as addresses:
            dead = tuple(addresses) + ("127.0.0.1:1",)
            degraded_farm = run(ExecConfig(jobs=4, backend="remote",
                                           remote_workers=dead,
                                           cache=False))
            assert self._keys(degraded_farm) == self._keys(serial)
