"""Micro-obligation batching tests (DESIGN.md §18): batch formation and
warm-cache hoisting, the worker-side absorb-once discipline, outcome
identity across batch sizes and backends, the dispatch telemetry, and
loud validation of the batching knobs in ExecConfig and both CLIs."""

import json
from dataclasses import dataclass
from typing import Any, Optional, Tuple

import pytest

from repro.exec import (
    BatchPayload, CallPayload, ExecConfig, Obligation, ObligationScheduler,
    Telemetry, make_batch,
)
from repro.exec.payload import ObligationPayload, _WARM_ABSORBED
from repro.exec.retry import RetryPolicy
from repro.exec.scheduler import _batch_worker
from repro.logic import add, encode_terms, fingerprint, intc, var
from repro.logic.normcache import NormalizationCache


# -- module-level payload targets (picklable by qualified name) ------------

def _square(x):
    return x * x


@dataclass(frozen=True)
class _WarmPayload(ObligationPayload):
    """Minimal payload with the VCPayload warm-shipping contract."""

    value: int
    warm_key: Optional[str] = None
    warm_norms: Any = None

    def run(self):
        return self.value * 10


def _warm_norms():
    """A real (fingerprints, wire) warm batch of two normal forms."""
    terms = [add(var("x"), intc(1)), add(var("y"), intc(2))]
    fps = tuple(fingerprint(t) for t in terms)
    return (fps, encode_terms(terms))


def _obs(n):
    return [Obligation(kind="vc", label=f"sq{i}",
                       thunk=(lambda i=i: i * i),
                       payload=CallPayload(_square, (i,)))
            for i in range(n)]


class TestMakeBatch:
    def test_shared_warm_hoisted_once_and_stripped(self):
        norms = _warm_norms()
        payloads = [_WarmPayload(i, warm_key="k", warm_norms=norms)
                    for i in range(3)]
        batch = make_batch([(i, p, f"t{i}", None)
                            for i, p in enumerate(payloads)])
        assert len(batch) == 3
        # one hoisted entry for the shared (key, fingerprints) pair
        assert len(batch.warm) == 1
        assert batch.warm[0] == ("k", norms)
        # members ship without their own copy...
        for _, payload, _, _ in batch.entries:
            assert payload.warm_norms is None
            assert payload.warm_key == "k"
        # ...but the caller's payloads are untouched (blamed solo
        # re-runs must still carry their own warm batch).
        assert all(p.warm_norms is norms for p in payloads)

    def test_distinct_warm_scopes_each_hoisted(self):
        norms_a, norms_b = _warm_norms(), _warm_norms()
        batch = make_batch([
            (0, _WarmPayload(0, warm_key="a", warm_norms=norms_a), "t0",
             None),
            (1, _WarmPayload(1, warm_key="b", warm_norms=norms_b), "t1",
             None),
        ])
        assert {key for key, _ in batch.warm} == {"a", "b"}

    def test_payloads_without_warm_pass_through(self):
        payload = CallPayload(_square, (2,))
        batch = make_batch([(0, payload, "t0", "key0")])
        assert batch.warm == ()
        assert batch.entries == ((0, payload, "t0", "key0"),)


class TestBatchWorker:
    def test_warm_absorbed_exactly_once_per_batch(self, monkeypatch):
        """The regression the hoisting exists for: a batch of K payloads
        sharing one warm batch decodes and absorbs it once, not K
        times."""
        import repro.exec.payload as payload_mod
        calls = []
        real = payload_mod._absorb_warm
        monkeypatch.setattr(payload_mod, "_absorb_warm",
                            lambda key, norms: (calls.append(key),
                                                real(key, norms)))
        monkeypatch.setattr(payload_mod, "_WARM_ABSORBED", set())
        norms = _warm_norms()
        entries = [(i, _WarmPayload(i, warm_key="scope", warm_norms=norms),
                    f"t{i}", None) for i in range(4)]
        results = _batch_worker(make_batch(entries), RetryPolicy(), None)
        assert [r[1] for r in results] == ["ok"] * 4
        assert calls == ["scope"]

    def test_absorbed_normal_forms_identical_to_unbatched(self):
        """What lands in the worker's normalization cache is the same
        whether the warm batch rides one hoisted slot or every payload:
        hoisting moves the bytes, never the contents."""
        from repro.logic.wire import decode_terms
        fps, wire = _warm_norms()
        solo, batched = NormalizationCache(), NormalizationCache()
        solo.absorb("scope", zip(fps, decode_terms(wire)))
        batch = make_batch([
            (i, _WarmPayload(i, warm_key="scope", warm_norms=(fps, wire)),
             f"t{i}", None) for i in range(3)])
        (key, norms), = batch.warm
        batched.absorb(key, zip(norms[0], decode_terms(norms[1])))
        assert solo.export("scope") == batched.export("scope")

    def test_results_match_solo_worker_runs(self):
        from repro.exec.scheduler import _process_worker
        entries = [(i, CallPayload(_square, (i,)), f"t{i}", None)
                   for i in range(5)]
        batched = _batch_worker(make_batch(entries), RetryPolicy(), None)
        solo = tuple(_process_worker(i, p, RetryPolicy(), None, t)
                     for i, p, t, _ in entries)
        # identical index/status/wire triples (walls differ, of course)
        assert [r[:3] for r in batched] == [r[:3] for r in solo]


class TestBatchedSchedulingIdentity:
    @pytest.mark.parametrize("backend,jobs", [
        ("serial", 1), ("process", 2)])
    def test_outcomes_identical_across_batch_sizes(self, backend, jobs):
        reference = None
        for batch_size in (1, 2, 16):
            outcomes = ObligationScheduler(ExecConfig(
                jobs=jobs, backend=backend, cache=False,
                telemetry=Telemetry(), batch_size=batch_size,
            )).run(_obs(11))
            values = [(o.status, o.value) for o in outcomes]
            if reference is None:
                reference = values
            assert values == reference, (backend, batch_size)
        assert reference == [("ok", i * i) for i in range(11)]

    def test_unpicklable_member_still_fails_loudly(self):
        """The batch admission meter ships unpicklable payloads solo, so
        the submission path's loud error behaviour survives batching."""
        bad = CallPayload(lambda: 1)          # lambdas do not pickle
        obs = _obs(6)
        obs.insert(3, Obligation(kind="vc", label="bad",
                                 thunk=(lambda: 1), payload=bad))
        outcomes = ObligationScheduler(ExecConfig(
            jobs=2, backend="process", cache=False, telemetry=Telemetry(),
            on_error="record")).run(obs)
        assert outcomes[3].status == "errored"
        ok = [o for i, o in enumerate(outcomes) if i != 3]
        assert all(o.ok for o in ok)


class TestDispatchTelemetry:
    def test_batched_dispatch_counters(self):
        telemetry = Telemetry()
        ObligationScheduler(ExecConfig(
            jobs=2, backend="process", cache=False, telemetry=telemetry,
            batch_size=16)).run(_obs(20))
        stats = telemetry.stats()
        assert stats.batched >= 1
        assert stats.batch_items == 20
        dispatched = [e for e in telemetry.events()
                      if e.event == "dispatched"]
        assert dispatched
        assert all(e.detail.startswith("items=") for e in dispatched)
        assert sum(int(e.detail[len("items="):])
                   for e in dispatched) == 20
        assert stats.dispatch_p95_seconds >= stats.dispatch_p50_seconds \
            >= 0.0
        assert "batched dispatches" in stats.summary()
        dump = stats.to_json()
        for field in ("batched", "batch_items", "dispatch_p50_seconds",
                      "dispatch_p95_seconds"):
            assert field in dump

    def test_batch_size_one_reports_nothing_batched(self):
        telemetry = Telemetry()
        ObligationScheduler(ExecConfig(
            jobs=2, backend="process", cache=False, telemetry=telemetry,
            batch_size=1)).run(_obs(6))
        stats = telemetry.stats()
        assert stats.batched == 0
        assert stats.batch_items == 0
        assert "batched dispatches" not in stats.summary()


class TestBatchKnobValidation:
    @pytest.mark.parametrize("value", [0, -1, -16, False, True, 2.5, "8"])
    def test_config_rejects_bad_batch_size(self, value):
        with pytest.raises(ValueError, match="batch_size"):
            ExecConfig(batch_size=value)

    @pytest.mark.parametrize("value", [0, -1, False, True, 0.5, "big"])
    def test_config_rejects_bad_batch_bytes_cap(self, value):
        with pytest.raises(ValueError, match="batch_bytes_cap"):
            ExecConfig(batch_bytes_cap=value)

    @pytest.mark.parametrize("kwargs", [
        {"batch_size": 0}, {"batch_size": -3},
        {"batch_bytes_cap": 0}, {"batch_bytes_cap": -1}])
    def test_scheduler_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            ObligationScheduler(ExecConfig(jobs=1, backend="serial",
                                           **kwargs))

    def test_config_json_round_trip(self):
        config = ExecConfig(jobs=3, backend="process", batch_size=7,
                            batch_bytes_cap=123456)
        clone = ExecConfig.from_json(json.loads(
            json.dumps(config.to_json())))
        assert clone.batch_size == 7
        assert clone.batch_bytes_cap == 123456
        assert clone == config

    def test_config_defaults(self):
        config = ExecConfig()
        assert config.batch_size == 16
        assert config.batch_bytes_cap == 4 * 1024 * 1024
        scheduler = config.scheduler()
        assert scheduler.batch_size == 16
        assert scheduler.batch_bytes_cap == 4 * 1024 * 1024


class TestCLIBatchFlags:
    @pytest.mark.parametrize("argv", [
        ["--batch-size", "0"], ["--batch-size", "-2"],
        ["--batch-size", "many"],
        ["--batch-bytes-cap", "0"], ["--batch-bytes-cap", "-1"],
        ["--batch-bytes-cap", "huge"]])
    def test_plan_cli_rejects_bad_knobs(self, argv, capsys):
        from repro.plan.cli import main
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert argv[1] in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--batch-size", "0"], ["--batch-size", "oops"],
        ["--batch-bytes-cap", "0"], ["--batch-bytes-cap", "-5"],
        ["--batch-bytes-cap", "oops"]])
    def test_harness_runner_rejects_bad_knobs(self, argv, capsys):
        from repro.harness.runner import main
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert argv[1] in capsys.readouterr().err