"""Process-backend tests: scheduler semantics over worker processes
(ordering, group chaining, timeouts, retries, error modes, caching),
payload reconstruction, and the cross-backend differential gates --
serial vs process must be bit-identical on real proofs."""

import os
import time

import pytest

from repro.exec import (
    CallPayload, ExecConfig, Obligation, ObligationScheduler, ResultCache,
    Telemetry, make_key,
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


def _busy_wait(seconds):
    deadline = time.time() + seconds
    while time.time() < deadline:
        pass
    return "done"


def _ob(label, payload, group=None, key=None):
    return Obligation(kind="test", label=label, thunk=payload.run,
                      cache_key=key, group=group, payload=payload)


def _scheduler(**kw):
    kw.setdefault("jobs", 2)
    kw.setdefault("backend", "process")
    kw.setdefault("cache", False)
    kw.setdefault("telemetry", Telemetry())
    return ObligationScheduler(ExecConfig(**kw))


class TestProcessScheduling:
    def test_results_in_input_order_in_workers(self):
        outcomes = _scheduler().run(
            [_ob(f"sq{i}", CallPayload(_pid_tag, (i,))) for i in range(6)])
        assert [o.value[1] for o in outcomes] == list(range(6))
        assert all(o.status == "ok" for o in outcomes)
        # the work genuinely left the parent process
        assert all(o.value[0] != os.getpid() for o in outcomes)

    def test_groups_run_serially_in_order(self):
        obs = [_ob(f"g{i}", CallPayload(_pid_tag, (i,)), group="g")
               for i in range(5)]
        outcomes = _scheduler(jobs=4).run(obs)
        assert [o.value[1] for o in outcomes] == list(range(5))

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
        # A worker result's detail reads ``worker=... served=... keyed``.
        assert (cold.stats().cache_misses, cold.stats().cache_hits) == (4, 0)
        assert (warm.stats().cache_misses, warm.stats().cache_hits) == (0, 4)

    def test_stop_on_skips_tail(self):
        obs = [_ob(f"s{i}", CallPayload(_square, (i,)), group="g")
               for i in range(6)]
        outcomes = _scheduler().run(
            obs, stop_on=lambda o: o.ok and o.value == 4)
        statuses = [o.status for o in outcomes]
        assert statuses[:3] == ["ok", "ok", "ok"]
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
        (the full corpus runs in benchmarks/bench_scheduler.py)."""
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
            return ([(o.lemma.name, o.proved, o.evidence, o.is_proof,
                      o.detail, o.manual_steps) for o in res.outcomes],
                    res.tcc_total, res.tcc_proved, res.tcc_subsumed,
                    res.tcc_unproved)

        serial = prove_implication(
            fips197_theory(), theory, exec=ExecConfig(jobs=1, cache=False))
        process = prove_implication(
            fips197_theory(), theory,
            exec=ExecConfig(jobs=2, backend="process", cache=False))
        assert key(process) == key(serial)
        assert process.holds and serial.holds
        # the obligation's decode re-attaches the parent's lemma objects
        # (not the stripped worker-side copies)
        assert all(o.lemma is not None for o in process.outcomes)
        assert [o.lemma.name for o in process.outcomes] == \
            [o.lemma.name for o in serial.outcomes]

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
                     tuple((t.status, t.evidence, t.trials, t.holds)
                           for t in a.theorems))
                    for a in apps]

        serial = run(ExecConfig(jobs=1, cache=False))
        process = run(ExecConfig(jobs=2, backend="process", cache=False))
        assert process == serial
