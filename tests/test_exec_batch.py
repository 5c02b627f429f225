"""Micro-obligation batching tests (DESIGN.md §18): the unit worker's
results equal solo runs, outcome identity across batch sizes and
backends, the dispatch telemetry, loud validation of the batching knobs
in ExecConfig and both CLIs, and the rule that cuts dispatch units."""

import json
import time

import pytest

from repro.exec import (
    CallPayload, ExecConfig, Obligation, ObligationScheduler, Telemetry,
)
from repro.exec.retry import RetryPolicy
from repro.exec.scheduler import _batch_worker, _process_worker


# -- module-level payload targets (picklable by qualified name) ------------

def _square(x):
    return x * x


def _nap(seconds):
    time.sleep(seconds)
    return seconds


def _obs(n):
    return [Obligation(kind="vc", label=f"sq{i}",
                       thunk=(lambda i=i: i * i),
                       payload=CallPayload(_square, (i,)))
            for i in range(n)]


class TestBatchWorker:
    def test_results_match_solo_worker_runs(self):
        entries = tuple((i, CallPayload(_square, (i,)), f"t{i}")
                        for i in range(5))
        _, batched = _batch_worker(entries, RetryPolicy(), None)
        solo = tuple(_process_worker(i, p, RetryPolicy(), None, t)
                     for i, p, t in entries)
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
        """A unit that fails as a whole because a payload does not
        pickle re-runs its members solo, so the submission path's loud
        error lands on the unpicklable member alone."""
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


class TestDispatchWall:
    NAP = 0.5

    def test_queue_wait_is_not_dispatch_overhead(self):
        """Four half-second units on two workers are submitted together,
        so each worker runs two, and its second waits about half a
        second in the pool's queue.  That wait is no wire cost: no
        unit's dispatch wall comes near it, and each member's own wall
        still covers its nap."""
        telemetry = Telemetry()
        obligations = [Obligation(kind="vc", label=f"nap{i}",
                                  thunk=lambda: None,
                                  payload=CallPayload(_nap, (self.NAP,)))
                       for i in range(4)]
        with ObligationScheduler(ExecConfig(
                jobs=2, backend="process", cache=False,
                telemetry=telemetry, batch_size=1)) as scheduler:
            outcomes = scheduler.run(obligations)
        assert [o.value for o in outcomes] == [self.NAP] * 4
        assert all(o.wall_seconds >= self.NAP for o in outcomes)
        walls = [e.wall for e in telemetry.events()
                 if e.event == "dispatched"]
        assert len(walls) == 4
        assert max(walls) < self.NAP / 2, walls
        assert telemetry.stats().dispatch_p95_seconds < self.NAP / 2


class TestBatchKnobValidation:
    @pytest.mark.parametrize("value", [0, -1, -16, False, True, 2.5, "8"])
    def test_config_rejects_bad_batch_size(self, value):
        with pytest.raises(ValueError, match="batch_size"):
            ExecConfig(batch_size=value)

    @pytest.mark.parametrize("value", [0, -1, False, True, 0.5, "big"])
    def test_config_rejects_bad_batch_bytes_cap(self, value):
        # Units have no byte cap: any value for the removed keyword is
        # refused.
        with pytest.raises(TypeError, match="batch_bytes_cap"):
            ExecConfig(batch_bytes_cap=value)

    @pytest.mark.parametrize("kwargs", [
        {"batch_size": 0}, {"batch_size": -3},
        {"batch_bytes_cap": 0}, {"batch_bytes_cap": -1}])
    def test_scheduler_rejects_bad_knobs(self, kwargs):
        with pytest.raises((ValueError, TypeError), match=next(iter(kwargs))):
            ObligationScheduler(ExecConfig(jobs=1, backend="serial",
                                           **kwargs))

    def test_config_json_round_trip(self):
        config = ExecConfig(jobs=3, backend="process", batch_size=7)
        clone = ExecConfig.from_json(json.loads(
            json.dumps(config.to_json())))
        assert clone.batch_size == 7
        assert clone == config

    def test_config_defaults(self):
        config = ExecConfig()
        assert config.batch_size == 16

        def widths(n, **kw):
            scheduler = ObligationScheduler(ExecConfig(**kw))
            units = scheduler._form_units(range(n))
            assert [i for unit in units for i in unit] == list(range(n))
            return [len(unit) for unit in units]

        # Consecutive runs in input order of min(batch_size, ceil(n/jobs)).
        assert ObligationScheduler(ExecConfig(jobs=2))._form_units(
            range(6)) == [(0, 1, 2), (3, 4, 5)]
        assert widths(45, jobs=2) == [16, 16, 13]
        assert widths(187, jobs=4) == [16] * 11 + [11]
        assert widths(5, jobs=2, batch_size=1) == [1] * 5


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