"""Process-backend tests: scheduler semantics over worker processes
(ordering, timeouts, retries, error modes, stop_on, caching),
payload reconstruction, and the cross-backend differential gates --
serial vs process must be bit-identical on real proofs."""

import multiprocessing
import os
import time

import pytest

from repro.exec import (
    CallPayload, ExecConfig, Obligation, ObligationScheduler, ResultCache,
    RetryPolicy, Telemetry, make_key,
)
from repro.lang import analyze, parse_package
from repro.prover import ImplementationProof

from tests.test_exec_scheduler import SRC, outcome_key


# -- module-level payload targets (must be picklable by qualified name) ----

def _square(x):
    return x * x


def _pid_tag(x):
    return (os.getpid(), x)


def _boom(x):
    raise ValueError(f"boom {x}")


def _remember(x):
    """Keep ``x`` in this worker's state; return the worker and all it
    kept so far."""
    from repro.exec.payload import worker_state
    kept = worker_state("kept", list)
    kept.append(x)
    return os.getpid(), tuple(kept)


def _busy_wait(seconds):
    deadline = time.time() + seconds
    while time.time() < deadline:
        pass
    return "done"


def _ob(label, payload, key=None):
    return Obligation(kind="test", label=label, thunk=payload.run,
                      cache_key=key, payload=payload)


def _scheduler(**kw):
    kw.setdefault("jobs", 2)
    kw.setdefault("backend", "process")
    kw.setdefault("cache", False)
    kw.setdefault("telemetry", Telemetry())
    return ObligationScheduler(ExecConfig(**kw))


def _details(telemetry, event):
    return [e.detail for e in telemetry.events() if e.event == event]


class TestProcessScheduling:
    def test_results_in_input_order_in_workers(self):
        outcomes = _scheduler().run(
            [_ob(f"sq{i}", CallPayload(_pid_tag, (i,))) for i in range(6)])
        assert [o.value[1] for o in outcomes] == list(range(6))
        assert all(o.status == "ok" for o in outcomes)
        # the work genuinely left the parent process
        assert all(o.value[0] != os.getpid() for o in outcomes)

    def test_payloadless_obligation_runs_inline(self):
        """An obligation without a payload still completes under the
        process backend -- inline on the parent."""
        sentinel = []
        plain = Obligation(kind="test", label="inline",
                           thunk=lambda: sentinel.append(os.getpid()) or 7)
        shipped = _ob("shipped", CallPayload(_square, (3,)))
        outcomes = _scheduler().run([plain, shipped])
        assert outcomes[0].value == 7
        assert sentinel == [os.getpid()]      # the closure ran here
        assert outcomes[1].value == 9

    def test_on_error_record_and_retries(self):
        outcomes = _scheduler(on_error="record", retries=1).run(
            [_ob("ok", CallPayload(_square, (3,))),
             _ob("bad", CallPayload(_boom, (7,)))])
        assert outcomes[0].ok and outcomes[0].value == 9
        assert outcomes[1].status == "errored"
        assert "boom 7" in outcomes[1].error
        assert outcomes[1].attempts == 2      # original + one retry

    def test_on_error_raise_propagates_worker_exception(self):
        with pytest.raises(ValueError, match="boom 1"):
            _scheduler().run([_ob("bad", CallPayload(_boom, (1,)))])

    def test_unpicklable_payload_fails_loudly(self):
        bad = CallPayload(lambda: 1)          # lambdas do not pickle
        outcomes = _scheduler(on_error="record").run(
            [_ob("bad", bad), _ob("good", CallPayload(_square, (2,)))])
        assert outcomes[0].status == "errored"
        assert outcomes[1].ok and outcomes[1].value == 4

    def test_hard_timeout_preempts_busy_loop(self):
        """SIGALRM interrupts a pure-Python busy loop: the obligation
        comes back ``timed_out`` promptly and the worker stays healthy
        for the next obligation."""
        if not hasattr(__import__("signal"), "SIGALRM"):
            pytest.skip("no SIGALRM on this platform")
        started = time.perf_counter()
        outcomes = _scheduler(timeout_seconds=0.3, on_error="record").run(
            [_ob("slow", CallPayload(_busy_wait, (30.0,))),
             _ob("fast", CallPayload(_square, (5,)))])
        assert time.perf_counter() - started < 10.0
        assert outcomes[0].status == "timed_out"
        assert outcomes[1].ok and outcomes[1].value == 25

    def test_parent_side_cache_round_trip(self):
        cache = ResultCache()

        def obs():
            return [_ob(f"k{i}", CallPayload(_square, (i,)),
                        key=make_key("proc-cache", str(i)))
                    for i in range(4)]

        cold, warm = Telemetry(), Telemetry()
        first = _scheduler(cache=cache, telemetry=cold).run(obs())
        second = _scheduler(cache=cache, telemetry=warm).run(obs())
        assert [o.value for o in first] == [0, 1, 4, 9]
        assert [o.status for o in first] == ["ok"] * 4
        assert [o.status for o in second] == ["cached"] * 4
        assert [o.value for o in second] == [0, 1, 4, 9]
        # A keyed worker result's detail is ``keyed``: a cache miss.
        assert (cold.stats().cache_misses, cold.stats().cache_hits) == (4, 0)
        assert (warm.stats().cache_misses, warm.stats().cache_hits) == (0, 4)

    def test_stop_on_skips_tail(self):
        """One unit per obligation: ``s2`` has no payload, so it runs
        inline when its unit's turn comes, after ``s0`` and ``s1`` have
        shipped and before ``s3`` does.  Its result stops the run: what
        already left completes, and nothing after it is dispatched."""
        obs = [_ob(f"s{i}", CallPayload(_square, (i,))) for i in range(6)]
        obs[2] = Obligation(kind="test", label="s2", thunk=lambda: 4)
        outcomes = _scheduler(batch_size=1).run(
            obs, stop_on=lambda o: o.ok and o.value == 4)
        statuses = [o.status for o in outcomes]
        assert statuses[:3] == ["ok", "ok", "ok"]
        assert [o.value for o in outcomes[:3]] == [0, 1, 4]
        assert statuses[3:] == ["skipped"] * 3

    def test_stop_on_cached_hit_still_runs_earlier_misses(self):
        """Cache hits settle before anything ships, but a hit that stops
        the run must not stop the misses *before* it: like the serial
        path, every obligation ahead of the stopping one runs, and only
        the tail is skipped."""
        cache = ResultCache()
        key = make_key("proc-stop", "3")
        cache.put(key, 9)
        obs = [_ob(f"c{i}", CallPayload(_square, (i,)),
                   key=key if i == 3 else None) for i in range(6)]
        outcomes = _scheduler(cache=cache).run(
            obs, stop_on=lambda o: o.ok and o.value == 9)
        assert [o.status for o in outcomes] == \
            ["ok", "ok", "ok", "cached", "skipped", "skipped"]
        assert [o.value for o in outcomes[:4]] == [0, 1, 4, 9]

    def test_telemetry_recorded_in_parent(self):
        telemetry = Telemetry()
        _scheduler(telemetry=telemetry).run(
            [_ob(f"t{i}", CallPayload(_square, (i,))) for i in range(3)])
        stats = telemetry.stats()
        assert stats.computed.get("test", 0) == 3
        assert stats.total == 3

    def test_dispatch_units_independent_of_worker_timing(self):
        """Dispatch units are cut before anything ships, from the input
        order and the configuration alone: the same 12 obligations give
        the same multiset of ``items=K`` dispatches on every run,
        however the workers' results interleave."""
        obs = [_ob(f"u{i}", CallPayload(_square, (i,))) for i in range(12)]
        runs = []
        for _ in range(2):
            telemetry = Telemetry()
            outcomes = _scheduler(jobs=4, telemetry=telemetry).run(obs)
            assert [o.value for o in outcomes] == [i * i for i in range(12)]
            runs.append(sorted(_details(telemetry, "dispatched")))
        assert runs[0] == runs[1] == ["items=3"] * 4


class TestPoolLifetime:
    """A scheduler spawns its worker pool when the first unit ships and
    keeps it across its runs until ``close()``, which reaps the
    workers."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """Every ``ProcessPoolExecutor`` the scheduler constructs."""
        from repro.exec import scheduler as scheduler_module
        built = []

        class CountingPool(scheduler_module.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(scheduler_module, "ProcessPoolExecutor",
                            CountingPool)
        return built

    def test_no_pool_when_nothing_ships(self, pools):
        telemetry = Telemetry()
        ran = []
        obs = [Obligation(kind="test", label=f"p{i}",
                          thunk=lambda i=i: ran.append(i) or i * i)
               for i in range(4)]
        with _scheduler(telemetry=telemetry) as scheduler:
            outcomes = scheduler.run(
                obs, stop_on=lambda o: o.ok and o.value == 4)
        assert [o.status for o in outcomes] == ["ok", "ok", "ok", "skipped"]
        assert ran == [0, 1, 2]          # inline, in order, as serial
        assert pools == []
        assert _details(telemetry, "dispatched") == []

    def test_one_pool_serves_every_run_until_close(self, pools):
        scheduler = _scheduler()
        workers = set()
        for round_ in range(3):
            outcomes = scheduler.run(
                [_ob(f"r{round_}.{i}", CallPayload(_pid_tag, (i,)))
                 for i in range(4)])
            assert [o.value[1] for o in outcomes] == list(range(4))
            workers |= {o.value[0] for o in outcomes}
        assert len(pools) == 1 and len(workers) <= 2
        alive = {p.pid for p in multiprocessing.active_children()}
        assert workers <= alive          # idle between runs, not reaped
        scheduler.close()
        assert not workers & {p.pid for p in
                              multiprocessing.active_children()}
        scheduler.run([_ob(f"after{i}", CallPayload(_square, (i,)))
                       for i in range(2)])
        scheduler.close()
        assert len(pools) == 2           # a run after close() spawns anew

    def test_worker_state_lives_as_long_as_the_worker(self, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        from repro.exec import payload

        # One worker behind a two-job scheduler: it serves every unit.
        monkeypatch.setattr(
            ObligationScheduler, "_spawn_pool",
            lambda self: ProcessPoolExecutor(
                max_workers=1, initializer=payload.start_worker))
        with _scheduler(jobs=2, batch_size=1) as scheduler:
            runs = [[o.value for o in scheduler.run(
                [_ob(f"k{round_}.{i}",
                     CallPayload(_remember, (10 * round_ + i,)))
                 for i in range(2)])]
                for round_ in range(2)]
        assert len({pid for run in runs for pid, _ in run}) == 1
        assert runs[1][-1][1] == (0, 1, 10, 11)
        # The parent never has worker state: each call is fresh there.
        assert payload._WORKER_STATE is None
        assert payload.worker_state("kept", list) == []


class TestEveryBackend:
    """Behaviour the serial and process backends must share."""

    def test_uncached_rerun_recomputes_on_every_backend(self):
        """With the parent's cache off nothing answers for a payload: the
        second run of the same keyed obligations executes payloads that
        raise, so it is ``errored`` on serial and on process."""
        keys = [make_key("uncached-rerun", str(i)) for i in range(2)]

        def rerun(backend):
            config = ExecConfig(jobs=2, backend=backend, cache=False,
                                on_error="record", telemetry=Telemetry())
            first = ObligationScheduler(config).run(
                [_ob(f"square{i}", CallPayload(_square, (i + 5,)), key=key)
                 for i, key in enumerate(keys)])
            second = ObligationScheduler(config).run(
                [_ob(f"boom{i}", CallPayload(_boom, (i,)), key=key)
                 for i, key in enumerate(keys)])
            assert [(o.status, o.value) for o in first] == \
                [("ok", 25), ("ok", 36)]
            return [o.status for o in second]

        assert rerun("serial") == ["errored"] * 2
        assert rerun("process") == ["errored"] * 2

    def test_error_text_identical_on_every_backend(self):
        """A payload raising ``ValueError("boom 1")`` under
        ``on_error="record"`` and one retry: the outcome's error, the
        ``errored`` telemetry detail and the ``retried`` detail read the
        same on serial and process."""
        def texts(backend):
            telemetry = Telemetry()
            outcomes = ObligationScheduler(ExecConfig(
                jobs=2, backend=backend, cache=False, on_error="record",
                retries=RetryPolicy(retries=1, base_delay=0.0),
                telemetry=telemetry)).run(
                [_ob("bad", CallPayload(_boom, (1,))),
                 _ob("ok", CallPayload(_square, (3,)))])
            assert [o.status for o in outcomes] == ["errored", "ok"]
            return (outcomes[0].error, _details(telemetry, "errored"),
                    _details(telemetry, "retried"))

        serial = texts("serial")
        assert serial == ("ValueError: boom 1", ["ValueError: boom 1"],
                          ["boom 1"])
        assert texts("process") == serial


class TestCrossBackendDifferential:
    """The differential gates: every backend performs the same proof."""

    def _keys(self, result):
        return [outcome_key(o) for o in result.outcomes]

    def test_small_package_all_backends_identical(self):
        typed = analyze(parse_package(SRC))
        runs = {
            backend: ImplementationProof(
                typed, exec=ExecConfig(jobs=jobs, backend=backend,
                                       cache=False)).run()
            for backend, jobs in (("serial", 1), ("process", 4))
        }
        assert self._keys(runs["process"]) == self._keys(runs["serial"])
        assert runs["process"].auto_percent == runs["serial"].auto_percent

    def test_sampled_aes_corpus_identical(self):
        """serial jobs=1 vs process jobs=4 over a
        deterministic sample of the annotated AES package's subprograms
        (the full corpus runs in benchmarks/bench_faults.py)."""
        from repro.aes.annotations import annotated_package
        from repro.aes.proof_scripts import aes_proof_scripts

        typed = annotated_package()
        sample = sorted(typed.signatures)[:6]
        scripts = aes_proof_scripts()

        def run(backend, jobs):
            return ImplementationProof(
                typed, scripts=scripts,
                exec=ExecConfig(jobs=jobs, backend=backend,
                                cache=False)).run(sample)

        serial = run("serial", 1)
        process = run("process", 4)
        assert serial.total_vcs > 0
        assert self._keys(process) == self._keys(serial)

    def test_implication_proof_identical(self):
        from repro.aes.annotations import annotated_package
        from repro.aes.fips197 import fips197_theory
        from repro.extract import extract_specification
        from repro.implication import prove_implication

        theory = extract_specification(annotated_package()).theory

        def key(res):
            return ([(lemma.name, evidence, steps)
                     for lemma, evidence, steps in res.outcomes],
                    res.tcc_total, res.tcc_proved, res.tcc_subsumed,
                    res.tcc_unproved)

        serial = prove_implication(
            fips197_theory(), theory, exec=ExecConfig(jobs=1, cache=False))
        process = prove_implication(
            fips197_theory(), theory,
            exec=ExecConfig(jobs=2, backend="process", cache=False))
        assert key(process) == key(serial)
        assert process.holds and serial.holds
        # each outcome carries the parent's lemma object (not a
        # worker-side copy)
        assert [lemma for lemma, _, _ in process.outcomes] == \
            [lemma for lemma, _, _ in serial.outcomes]

    def test_differential_trials_identical(self):
        from repro.aes.blocks import transformation_blocks, cipher_sampler
        from repro.aes.optimized import optimized_source
        from repro.refactor import RefactoringEngine

        def run(config):
            engine = RefactoringEngine(
                parse_package(optimized_source()),
                observables=["Cipher", "Inv_Cipher"],
                check="differential", trials=4,
                samplers={"Cipher": cipher_sampler,
                          "Inv_Cipher": cipher_sampler},
                exec=config)
            apps = []
            for index, transformations in transformation_blocks():
                if index > 1:
                    break
                for transformation in transformations:
                    apps.append(engine.apply(transformation))
            return [(a.transformation, a.preserved,
                     tuple(a.theorems.items()))
                    for a in apps]

        serial = run(ExecConfig(jobs=1, cache=False))
        process = run(ExecConfig(jobs=2, backend="process", cache=False))
        assert process == serial
