"""Chaos tests for the fault-tolerant execution layer (DESIGN.md §12).

Faults are injected on a deterministic per-obligation schedule: each
obligation carries a *plan* -- a tuple of faults consumed one per attempt
("crash" kills the worker process, "raise" throws a transient error,
"stall" sleeps briefly) -- and attempt counters live in files so the
schedule survives the process boundary and pool respawns.  The headline
gate re-runs the sampled AES corpus on the serial and process backends
under injected faults and requires bit-identical per-VC verdicts.
"""

import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Tuple

import pytest

from repro.exec import (
    BackendUnusableError, CallPayload, ExecConfig, Obligation,
    ObligationPayload, ObligationScheduler, RetryPolicy, Telemetry,
)
from tests.test_exec_scheduler import outcome_key

#: Backoff fast enough that a chaos run costs milliseconds, not seconds.
FAST_RETRY = RetryPolicy(retries=2, base_delay=0.001, max_delay=0.005)


# -- deterministic cross-process fault schedules ---------------------------

def _attempt_file(state_dir, name):
    return os.path.join(state_dir, name.replace(os.sep, "_")
                        .replace("/", "_") + ".attempts")


def _next_attempt(state_dir, name):
    """1-based attempt number for one obligation, shared across worker
    processes: one byte appended per attempt (attempts of a single
    obligation are sequential, so the size read-back is race-free)."""
    path = _attempt_file(state_dir, name)
    fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
    try:
        os.write(fd, b".")
    finally:
        os.close(fd)
    return os.path.getsize(path)


def _apply_fault(state_dir, name, plan):
    attempt = _next_attempt(state_dir, name)
    fault = plan[attempt - 1] if attempt <= len(plan) else None
    if fault == "crash":
        os._exit(3)            # kill the worker outright, no cleanup
    if fault == "raise":
        raise RuntimeError(
            f"injected transient fault ({name}, attempt {attempt})")
    if fault == "stall":
        time.sleep(0.2)


# -- module-level payload targets (picklable by qualified name) ------------

def _faulty_value(state_dir, name, plan, value):
    _apply_fault(state_dir, name, plan)
    return value


def _busy(seconds):
    deadline = time.time() + seconds
    while time.time() < deadline:
        pass
    return "done"


def _hang_ignoring_alarm(seconds):
    """Simulate a wedged worker: block SIGALRM so the hard timeout cannot
    fire, then spin.  Only the parent's fallback deadline can end this."""
    if hasattr(signal, "pthread_sigmask"):
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    return _busy(seconds)


@dataclass(frozen=True)
class ChaosPayload(ObligationPayload):
    """Wrap a real payload with a fault plan: apply this attempt's fault,
    then delegate the actual work (and the result codecs) to the inner
    payload."""

    inner: Any
    state_dir: str
    name: str
    plan: Tuple[str, ...]

    def run(self):
        _apply_fault(self.state_dir, self.name, self.plan)
        return self.inner.run()

    def encode_result(self, value):
        return self.inner.encode_result(value)

    def decode_result(self, wire):
        return self.inner.decode_result(wire)


def _chaos_wrap(ob, state_dir, plan):
    if not plan:
        return ob
    inner_thunk = ob.thunk

    def thunk():
        _apply_fault(state_dir, ob.label, plan)
        return inner_thunk()

    payload = None if ob.payload is None else ChaosPayload(
        inner=ob.payload, state_dir=state_dir, name=ob.label, plan=plan)
    return replace(ob, thunk=thunk, payload=payload)


@contextmanager
def _inject(state_dir, planner):
    """Wrap every obligation entering any scheduler with the fault plan
    ``planner(index, obligation)`` assigns it."""
    original = ObligationScheduler.run

    def run(self, obligations, stop_on=None):
        wrapped = [_chaos_wrap(ob, state_dir, tuple(planner(i, ob)))
                   for i, ob in enumerate(obligations)]
        return original(self, wrapped, stop_on)

    ObligationScheduler.run = run
    try:
        yield
    finally:
        ObligationScheduler.run = original


def _faulty_ob(state_dir, name, plan, value, group=None):
    payload = CallPayload(_faulty_value,
                          (str(state_dir), name, tuple(plan), value))
    return Obligation(kind="chaos", label=name, thunk=payload.run,
                      group=group, payload=payload)


def _scheduler(**kw):
    kw.setdefault("jobs", 2)
    kw.setdefault("backend", "process")
    kw.setdefault("cache", False)
    kw.setdefault("telemetry", Telemetry())
    kw.setdefault("retries", FAST_RETRY)
    return ObligationScheduler(ExecConfig(**kw))


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_delay_is_deterministic(self):
        policy = RetryPolicy(retries=3)
        for attempt in (1, 2, 3):
            assert policy.delay(attempt, "vc:Sub_Bytes/vc1") == \
                policy.delay(attempt, "vc:Sub_Bytes/vc1")

    def test_backoff_grows_exponentially_without_jitter(self):
        policy = RetryPolicy(retries=5, base_delay=0.1, factor=2.0,
                             max_delay=100.0, jitter=0.0)
        assert [policy.delay(a) for a in (1, 2, 3, 4)] == \
            [0.1, 0.2, 0.4, 0.8]

    def test_max_delay_caps_backoff(self):
        policy = RetryPolicy(retries=9, base_delay=0.1, factor=10.0,
                             max_delay=0.5, jitter=0.1)
        for attempt in range(1, 10):
            assert policy.delay(attempt, "x") <= 0.5

    def test_jitter_bounded_by_fraction(self):
        policy = RetryPolicy(retries=1, base_delay=0.1, factor=2.0,
                             max_delay=100.0, jitter=0.25)
        delay = policy.delay(1, "token")
        assert 0.1 <= delay <= 0.1 * 1.25

    def test_zero_policy_never_sleeps(self):
        policy = RetryPolicy()
        assert policy.retries == 0
        assert RetryPolicy(base_delay=0.0).delay(3, "t") == 0.0

    def test_coerce(self):
        assert RetryPolicy.coerce(3) == RetryPolicy(retries=3)
        policy = RetryPolicy(retries=1, base_delay=0.2)
        assert RetryPolicy.coerce(policy) is policy
        with pytest.raises(TypeError):
            RetryPolicy.coerce(True)
        with pytest.raises(TypeError):
            RetryPolicy.coerce("twice")
        with pytest.raises(ValueError, match="retries"):
            RetryPolicy.coerce(-1)

    def test_validation(self):
        with pytest.raises(ValueError, match="base_delay"):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ValueError, match="factor"):
            RetryPolicy(factor=0.5)
        with pytest.raises(ValueError, match="max_delay"):
            RetryPolicy(max_delay=-1.0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="attempt"):
            RetryPolicy(retries=1).delay(0)

    def test_to_json(self):
        assert RetryPolicy(retries=2).to_json() == {
            "retries": 2, "base_delay": 0.05, "factor": 2.0,
            "max_delay": 2.0, "jitter": 0.1}


# ---------------------------------------------------------------------------
# Crash recovery (process backend)
# ---------------------------------------------------------------------------

class TestCrashRecovery:
    def test_single_crash_recovers_and_completes(self, tmp_path):
        """One worker-killing obligation: the pool is respawned, the
        obligation re-runs solo and succeeds, nothing is quarantined and
        the run never raises (default ``on_error='raise'``)."""
        telemetry = Telemetry()
        obs = [_faulty_ob(tmp_path, f"c{i}",
                          ("crash",) if i == 2 else (), i * 10)
               for i in range(6)]
        outcomes = _scheduler(telemetry=telemetry).run(obs)
        assert [o.value for o in outcomes] == [0, 10, 20, 30, 40, 50]
        assert all(o.ok for o in outcomes)
        stats = telemetry.stats()
        assert stats.crashes >= 1
        assert stats.quarantined == 0
        assert stats.retried_ok >= 1       # the crasher succeeded on re-run

    def test_double_crasher_quarantined_run_continues(self, tmp_path):
        """An obligation that kills its worker on every attempt is blamed
        twice, quarantined with a ``crashed`` outcome, and everything else
        still completes -- the run is not aborted."""
        telemetry = Telemetry()
        obs = [_faulty_ob(tmp_path, f"q{i}",
                          ("crash",) * 8 if i == 1 else (), i)
               for i in range(5)]
        outcomes = _scheduler(telemetry=telemetry).run(obs)
        assert outcomes[1].status == "crashed"
        assert not outcomes[1].ok
        assert "quarantined" in outcomes[1].error
        for i in (0, 2, 3, 4):
            assert outcomes[i].ok and outcomes[i].value == i
        stats = telemetry.stats()
        assert stats.quarantined == 1
        assert stats.crashes >= 2          # two blames for the killer
        events = [e.event for e in telemetry.events()
                  if e.label == "q1"]
        assert "quarantined" in events

    def test_crash_in_group_preserves_serial_order(self, tmp_path):
        """Crash recovery must not reorder a group: successors only
        dispatch after the crashed predecessor is finalized solo."""
        obs = [_faulty_ob(tmp_path, f"g{i}",
                          ("crash",) if i == 2 else (), i, group="g")
               for i in range(5)]
        outcomes = _scheduler(jobs=4).run(obs)
        assert [o.value for o in outcomes] == [0, 1, 2, 3, 4]
        assert all(o.ok for o in outcomes)

    def test_transient_raise_recovers_on_all_backends(self, tmp_path):
        """A thunk/payload that raises once is absorbed by the retry
        policy on every backend and recorded as ``retried_ok``."""
        for backend, jobs in (("serial", 1), ("process", 2)):
            telemetry = Telemetry()
            state = tmp_path / backend
            state.mkdir()
            obs = [_faulty_ob(state, f"t{i}",
                              ("raise",) if i == 1 else (), i)
                   for i in range(3)]
            outcomes = _scheduler(backend=backend, jobs=jobs,
                                  telemetry=telemetry).run(obs)
            assert [o.value for o in outcomes] == [0, 1, 2], backend
            assert telemetry.stats().retried_ok == 1, backend


# ---------------------------------------------------------------------------
# Backend degradation
# ---------------------------------------------------------------------------

def _obs(n=4):
    return [Obligation(kind="test", label=f"o{i}",
                       thunk=lambda i=i: i * i) for i in range(n)]


class TestDegradation:
    @pytest.fixture
    def no_process_pool(self, monkeypatch):
        def refuse(self):
            raise BackendUnusableError("process",
                                       "no multiprocessing (injected)")
        monkeypatch.setattr(ObligationScheduler, "_spawn_pool", refuse)

    def test_process_degrades_to_serial(self, no_process_pool):
        telemetry = Telemetry()
        outcomes = _scheduler(telemetry=telemetry,
                              on_backend_failure="degrade").run(_obs())
        assert [o.value for o in outcomes] == [0, 1, 4, 9]
        stats = telemetry.stats()
        assert stats.degraded == 1
        degraded = [e for e in telemetry.events() if e.event == "degraded"]
        assert [e.label for e in degraded] == ["process->serial"]
        assert "injected" in degraded[0].detail

    def test_full_chain_process_to_serial(self, no_process_pool):
        """``serial`` is the end of the chain: one hop from process."""
        telemetry = Telemetry()
        outcomes = _scheduler(telemetry=telemetry,
                              on_backend_failure="degrade").run(_obs())
        assert [o.value for o in outcomes] == [0, 1, 4, 9]
        assert telemetry.stats().degraded == 1
        assert [e.label for e in telemetry.events()
                if e.event == "degraded"] == ["process->serial"]

    def test_on_backend_failure_raise_propagates(self, no_process_pool):
        with pytest.raises(BackendUnusableError, match="process"):
            _scheduler(on_backend_failure="raise").run(_obs())

    def test_degrade_keeps_finished_outcomes(self, monkeypatch, tmp_path):
        """Outcomes reached before the degradation stay final: when the
        process pool stops accepting work partway and cannot be
        respawned, the serial fallback runs only the unfinished
        obligations -- nothing runs twice."""
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        class FlakySubmitPool:
            """Accepts two submissions, then breaks at submit time."""

            def __init__(self, max_workers=None):
                self._inner = ProcessPoolExecutor(max_workers=max_workers)
                self._accepted = 0

            def submit(self, fn, *args, **kwargs):
                self._accepted += 1
                if self._accepted > 2:
                    raise BrokenExecutor("pool broke at submit (injected)")
                return self._inner.submit(fn, *args, **kwargs)

            def shutdown(self, wait=True, cancel_futures=False):
                self._inner.shutdown(wait=wait,
                                     cancel_futures=cancel_futures)

        spawned = []

        def spawn_once(self):
            if spawned:
                raise BackendUnusableError("process",
                                           "cannot respawn (injected)")
            spawned.append(FlakySubmitPool(max_workers=self.jobs))
            return spawned[0]

        monkeypatch.setattr(ObligationScheduler, "_spawn_pool", spawn_once)
        telemetry = Telemetry()
        # One group, batch_size=1: each obligation ships alone once its
        # predecessor is final, so the first two finish before the
        # injected third-submit refusal.
        obs = [_faulty_ob(tmp_path, f"d{i}", (), i, group="g")
               for i in range(4)]
        outcomes = _scheduler(telemetry=telemetry,
                              on_backend_failure="degrade",
                              batch_size=1).run(obs)
        assert [o.value for o in outcomes] == [0, 1, 2, 3]
        assert telemetry.stats().degraded == 1
        # every obligation ran exactly once despite the backend switch
        for i in range(4):
            assert os.path.getsize(_attempt_file(str(tmp_path),
                                                 f"d{i}")) == 1


# ---------------------------------------------------------------------------
# Failure taxonomy & abandoned workers
# ---------------------------------------------------------------------------

class TestFailureTaxonomy:
    def test_every_failure_mode_lands_in_telemetry(self, tmp_path,
                                                   monkeypatch):
        """One run exhibiting all five taxonomy entries: a hard timeout,
        crash blames, a quarantine, a retried-ok recovery, and (in a
        follow-up pass on the same telemetry) a degradation."""
        if not hasattr(signal, "SIGALRM"):
            pytest.skip("no SIGALRM on this platform")
        telemetry = Telemetry()
        obs = [
            _faulty_ob(tmp_path, "fine", (), 1),
            _faulty_ob(tmp_path, "flaky", ("raise",), 2),
            _faulty_ob(tmp_path, "killer", ("crash",) * 8, 3),
            Obligation(kind="chaos", label="hang",
                       thunk=lambda: _busy(30.0),
                       payload=CallPayload(_busy, (30.0,))),
        ]
        outcomes = _scheduler(telemetry=telemetry, timeout_seconds=0.3,
                              on_error="record").run(obs)
        assert outcomes[0].ok
        assert outcomes[1].ok
        assert outcomes[2].status == "crashed"
        assert outcomes[3].status == "timed_out"

        def refuse(self):
            raise BackendUnusableError("process", "gone (injected)")
        monkeypatch.setattr(ObligationScheduler, "_spawn_pool", refuse)
        _scheduler(telemetry=telemetry,
                   on_backend_failure="degrade").run(_obs(2))

        failures = telemetry.stats().failures
        assert set(failures) == {"timeout", "crashed", "quarantined",
                                 "degraded", "retried_ok"}
        assert all(count >= 1 for count in failures.values()), failures

    def test_failures_in_json_dump(self, tmp_path):
        telemetry = Telemetry()
        _scheduler(telemetry=telemetry).run(
            [_faulty_ob(tmp_path, "flaky", ("raise",), 7)])
        dump = telemetry.to_json(context={"backend": "process"})
        assert dump["stats"]["failures"]["retried_ok"] == 1
        assert "abandoned_workers" in dump["stats"]
        assert dump["context"]["backend"] == "process"


class TestAbandonedWorkers:
    def test_process_backend_records_abandoned_worker(self, monkeypatch,
                                                      tmp_path):
        """A worker that blocks SIGALRM and spins is unreachable by the
        hard timeout; the parent's fallback deadline abandons it and the
        abandonment is recorded."""
        if not hasattr(signal, "SIGALRM"):
            pytest.skip("no SIGALRM on this platform")
        monkeypatch.setattr(ObligationScheduler,
                            "TIMEOUT_FALLBACK_SLACK", 0.3)
        telemetry = Telemetry()
        wedged = Obligation(kind="test", label="wedged",
                            thunk=lambda: "unused",
                            payload=CallPayload(_hang_ignoring_alarm,
                                                (3.0,)))
        outcomes = _scheduler(telemetry=telemetry,
                              timeout_seconds=0.2).run(
            [wedged, _faulty_ob(tmp_path, "healthy", (), 5)])
        assert outcomes[0].status == "timed_out"
        assert "unresponsive" in outcomes[0].error
        assert outcomes[1].ok and outcomes[1].value == 5
        stats = telemetry.stats()
        assert stats.abandoned_workers == 1
        assert [e.label for e in telemetry.events()
                if e.event == "worker_abandoned"] == ["backend:process"]


# ---------------------------------------------------------------------------
# The headline chaos gate: AES corpus, bit-identical verdicts under faults
# ---------------------------------------------------------------------------

class TestChaosDifferentialAES:
    """Injected faults must never change a proof verdict: serial and
    process runs of the sampled AES corpus agree bit-for-bit even while
    workers crash, payloads raise transiently, and stalls fire."""

    def _keys(self, result):
        return [outcome_key(o) for o in result.outcomes]

    def test_sampled_corpus_identical_under_injected_faults(self, tmp_path):
        from repro.aes.annotations import annotated_package
        from repro.aes.proof_scripts import aes_proof_scripts
        from repro.prover import ImplementationProof

        typed = annotated_package()
        sample = sorted(typed.signatures)[:5]
        scripts = aes_proof_scripts()

        def transient(i, ob):
            # recoverable everywhere: a single transient raise per fifth
            # obligation, absorbed by the retry policy
            return ("raise",) if i % 5 == 1 else ()

        def hostile(i, ob):
            # process-only extras: a worker-killing crash and a stall on
            # top of the transient raises
            if i % 5 == 1:
                return ("raise",)
            if i == 3:
                return ("crash",)
            if i == 4:
                return ("stall",)
            return ()

        def run(backend, jobs, planner, sub):
            state = tmp_path / sub
            state.mkdir()
            telemetry = Telemetry()
            with _inject(str(state), planner):
                result = ImplementationProof(
                    typed, scripts=scripts,
                    exec=ExecConfig(jobs=jobs, backend=backend, cache=False,
                                    retries=FAST_RETRY,
                                    telemetry=telemetry)).run(sample)
            return result, telemetry.stats()

        serial, serial_stats = run("serial", 1, transient, "serial")
        process, process_stats = run("process", 4, hostile, "process")

        assert serial.total_vcs > 4
        assert self._keys(process) == self._keys(serial)
        assert process.auto_percent == serial.auto_percent
        # the faults genuinely fired and were genuinely absorbed
        assert serial_stats.retried_ok >= 1
        assert process_stats.retried_ok >= 1
        assert process_stats.crashes >= 1
        assert process_stats.quarantined == 0
        assert process_stats.errors == 0


# ---------------------------------------------------------------------------
# Runner CLI guards (satellites)
# ---------------------------------------------------------------------------

def _runner_config(argv):
    from repro.exec.cli import exec_config
    from repro.harness import runner
    parser = runner.build_parser()
    return exec_config(parser, parser.parse_args(argv))


def _usage_error(capsys, argv) -> str:
    """stderr of a runner invocation that must exit with status 2."""
    with pytest.raises(SystemExit) as err:
        _runner_config(argv)
    assert err.value.code == 2
    return capsys.readouterr().err


class TestRunnerFlags:
    def test_jobs_zero_is_an_error(self, capsys):
        assert "jobs must be >= 1, got 0" in \
            _usage_error(capsys, ["--jobs", "0"])

    def test_jobs_negative_is_an_error(self, capsys):
        assert "jobs must be >= 1, got -3" in \
            _usage_error(capsys, ["--jobs=-3"])

    def test_jobs_non_integer_is_an_error(self, capsys):
        assert "invalid int value: 'many'" in \
            _usage_error(capsys, ["--jobs", "many"])

    def test_jobs_valid_and_default(self):
        assert _runner_config(["--jobs", "4"]).jobs == 4
        assert _runner_config([]).jobs == 1

    def test_retry_flags_build_a_policy(self):
        policy = _runner_config(
            ["--retries", "3", "--max-retry-delay", "0.5"]).retries
        assert policy == RetryPolicy(retries=3, max_delay=0.5)
        assert _runner_config([]).retries == RetryPolicy()

    def test_retry_flags_invalid(self, capsys):
        assert "retries must be >= 0, got -1" in \
            _usage_error(capsys, ["--retries", "-1"])
        assert "max_delay must be >= 0, got -2" in \
            _usage_error(capsys, ["--max-retry-delay", "-2"])

    def test_on_backend_failure_flag(self, capsys):
        assert _runner_config([]).on_backend_failure == "raise"
        assert _runner_config(
            ["--on-backend-failure", "degrade"]).on_backend_failure \
            == "degrade"
        assert "on_backend_failure must be 'raise' or 'degrade', got " \
            "'panic'" in _usage_error(
                capsys, ["--on-backend-failure", "panic"])


# ---------------------------------------------------------------------------
# Batched dispatch under faults (DESIGN.md §18)
# ---------------------------------------------------------------------------

class TestBatchedChaos:
    def test_crasher_inside_batch_blames_members_once(self, tmp_path):
        """A worker crash takes its whole batch down: every member is
        blamed once (one strike, never quarantine-worthy alone), then
        the survivors re-run solo and succeed.  Four groups of two chain
        the crashing unit (b6, b7) behind a clean one (b2, b3), so the
        clean unit's batched dispatch always completes first -- the
        crash cannot race it."""
        telemetry = Telemetry()
        obs = [_faulty_ob(tmp_path, f"b{i}",
                          ("crash",) if i == 6 else (), i * 10,
                          group=f"g{i % 4}")
               for i in range(8)]
        outcomes = _scheduler(telemetry=telemetry,
                              batch_size=4).run(obs)
        assert [o.value for o in outcomes] == [i * 10 for i in range(8)]
        assert all(o.ok for o in outcomes)
        stats = telemetry.stats()
        assert stats.batched >= 1
        # every member of the broken batch takes the blame...
        assert stats.crashes >= 2
        # ...but a single collective strike never quarantines anyone
        assert stats.quarantined == 0
        assert stats.retried_ok >= 1

    def test_double_crasher_in_batch_quarantined_innocents_ok(
            self, tmp_path):
        """The solo re-run after a broken batch is the second strike for
        a persistent crasher: it is quarantined there, while its batch
        mates -- innocent of both crashes -- all complete."""
        telemetry = Telemetry()
        obs = [_faulty_ob(tmp_path, f"p{i}",
                          ("crash",) * 8 if i == 1 else (), i)
               for i in range(8)]
        outcomes = _scheduler(telemetry=telemetry,
                              batch_size=4).run(obs)
        assert outcomes[1].status == "crashed"
        assert "quarantined" in outcomes[1].error
        for i in (0, 2, 3, 4, 5, 6, 7):
            assert outcomes[i].ok and outcomes[i].value == i, i
        stats = telemetry.stats()
        assert stats.quarantined == 1
        assert stats.crashes >= 2

    def test_transient_raise_inside_batch_retries_in_place(self, tmp_path):
        """A member raising a transient error is retried inside the
        worker's batch loop -- the batch is not broken up and nobody
        else is blamed."""
        telemetry = Telemetry()
        obs = [_faulty_ob(tmp_path, f"r{i}",
                          ("raise",) if i == 3 else (), i)
               for i in range(6)]
        outcomes = _scheduler(telemetry=telemetry,
                              batch_size=6, jobs=1).run(obs)
        assert [o.value for o in outcomes] == list(range(6))
        stats = telemetry.stats()
        assert stats.retried_ok == 1
        assert stats.crashes == 0

    def test_wedged_batch_times_out_every_member(self, monkeypatch,
                                                 tmp_path):
        """A batch whose worker wedges past the scaled fallback deadline
        is abandoned wholesale: every member times out (no silent
        drops), and healthy work elsewhere still completes."""
        if not hasattr(signal, "SIGALRM"):
            pytest.skip("no SIGALRM on this platform")
        monkeypatch.setattr(ObligationScheduler,
                            "TIMEOUT_FALLBACK_SLACK", 0.3)
        telemetry = Telemetry()
        wedged = [Obligation(kind="test", label=f"w{i}",
                             thunk=lambda: "unused",
                             payload=CallPayload(_hang_ignoring_alarm,
                                                 (6.0,)))
                  for i in range(2)]
        healthy = [_faulty_ob(tmp_path, f"h{i}", (), i) for i in range(2)]
        outcomes = _scheduler(telemetry=telemetry, timeout_seconds=0.2,
                              batch_size=2, jobs=2).run(wedged + healthy)
        assert [o.status for o in outcomes[:2]] == ["timed_out"] * 2
        assert all(o.ok for o in outcomes[2:])
        assert telemetry.stats().abandoned_workers >= 1

    def test_batched_verdicts_identical_to_unbatched_under_faults(
            self, tmp_path):
        """The §12 discipline extended to §18: the same fault schedule
        produces bit-identical outcome keys whether dispatch is batched
        or per-obligation."""
        runs = {}
        for batch_size in (1, 4):
            state = tmp_path / f"bs{batch_size}"
            state.mkdir()
            obs = [_faulty_ob(state, f"d{i}",
                              {1: ("raise",), 4: ("crash",),
                               6: ("crash",) * 8}.get(i, ()), i)
                   for i in range(10)]
            outcomes = _scheduler(telemetry=Telemetry(), on_error="record",
                                  batch_size=batch_size).run(obs)
            runs[batch_size] = [(o.obligation.label, o.status, o.value,
                                 o.error is None) for o in outcomes]
        assert runs[1] == runs[4]
