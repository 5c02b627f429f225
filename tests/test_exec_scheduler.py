"""Scheduler tests: serial/parallel equivalence on a real proof, group
ordering, timeout handling, retries, early exit, and error recording."""

import threading
import time

import pytest

from repro.exec import (
    ExecConfig, Obligation, ObligationScheduler, ResultCache, Telemetry,
    make_key,
)
from repro.lang import analyze, parse_package
from repro.prover import AutoProver, ImplementationProof

# the fixture package of tests/test_prover.py: its loop-invariant VCs
# reach the auto prover, so the proof actually schedules obligations.
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


def outcome_key(o):
    return (o.vc.subprogram, o.vc.name, o.vc.kind, o.stage,
            o.result.proved if o.result else None)


class TestSerialParallelEquivalence:
    def test_same_outcomes(self):
        typed = analyze(parse_package(SRC))
        serial = ImplementationProof(
            typed, exec=ExecConfig(jobs=1, cache=False)).run()
        parallel = ImplementationProof(
            typed, exec=ExecConfig(jobs=4, backend="process",
                                   cache=False)).run()
        assert [outcome_key(o) for o in serial.outcomes] == \
               [outcome_key(o) for o in parallel.outcomes]
        assert serial.total_vcs == parallel.total_vcs
        assert serial.auto_percent == parallel.auto_percent

    def test_parallel_records_scheduler_telemetry(self):
        typed = analyze(parse_package(SRC))
        t = Telemetry()
        serial = ImplementationProof(
            typed, exec=ExecConfig(jobs=1, cache=False)).run()
        parallel = ImplementationProof(
            typed, exec=ExecConfig(jobs=4, backend="process", cache=False,
                                   telemetry=t)).run()
        assert [outcome_key(o) for o in parallel.outcomes] == \
               [outcome_key(o) for o in serial.outcomes]
        stats = t.stats()
        assert stats.computed.get("vc", 0) > 0
        assert stats.max_queue_depth >= 1


def _scheduler(**kw):
    return ObligationScheduler(ExecConfig(cache=False, **kw))


class TestScheduling:
    def _obligation(self, label, fn, group=None):
        return Obligation(kind="vc", label=label, thunk=fn,
                          cache_key=make_key(label), group=group)

    def test_results_in_input_order(self):
        def make(i):
            def work():
                time.sleep(0.01 * ((7 - i) % 3))  # finish out of order
                return i
            return work
        obs = [self._obligation(f"o{i}", make(i)) for i in range(8)]
        outcomes = _scheduler(jobs=4).run(obs)
        assert [o.value for o in outcomes] == list(range(8))

    def test_groups_run_serially_in_order(self):
        trace = []
        lock = threading.Lock()

        def make(tag):
            def work():
                with lock:
                    trace.append(tag)
                time.sleep(0.01)
                return tag
            return work

        obs = [self._obligation(f"g{i}", make(i), group="shared")
               for i in range(6)]
        _scheduler(jobs=4).run(obs)
        assert trace == list(range(6))

    def test_retry_then_success(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise RuntimeError("transient")
            return "finally"
        obs = [self._obligation("flaky", flaky)]
        [outcome] = _scheduler(jobs=1, retries=2).run(obs)
        assert outcome.ok and outcome.value == "finally"
        assert outcome.attempts == 3

    def test_on_error_record(self):
        def boom():
            raise ValueError("no")
        obs = [self._obligation("boom", boom),
               self._obligation("fine", lambda: 1)]
        outcomes = _scheduler(jobs=1, on_error="record").run(obs)
        assert outcomes[0].status == "errored"
        assert "no" in outcomes[0].error
        assert outcomes[1].ok

    def test_on_error_raise_default(self):
        def boom():
            raise ValueError("no")
        with pytest.raises(ValueError):
            _scheduler(jobs=1).run([self._obligation("boom", boom)])

    def test_stop_on_skips_rest(self):
        calls = []

        def make(i):
            def work():
                calls.append(i)
                return i
            return work
        obs = [self._obligation(f"s{i}", make(i)) for i in range(10)]
        outcomes = _scheduler(jobs=1).run(
            obs, stop_on=lambda o: o.value == 2)
        assert calls == [0, 1, 2]
        assert [o.status for o in outcomes[3:]] == ["skipped"] * 7


class TestProofTimeout:
    def test_slow_prover_yields_undischarged(self, monkeypatch):
        """A VC whose discharge overruns the obligation timeout comes back
        ``undischarged`` -- the proof completes instead of crashing.
        (Pool workers fork from this process, so they inherit the
        patched prover.)"""
        real_prove = AutoProver.prove

        def slow_prove(self, term, hypotheses=()):
            time.sleep(1.0)
            return real_prove(self, term, hypotheses)

        monkeypatch.setattr(AutoProver, "prove", slow_prove)
        typed = analyze(parse_package(SRC))
        result = ImplementationProof(
            typed, exec=ExecConfig(jobs=2, backend="process", cache=False,
                                   timeout_seconds=0.1)).run()
        assert result.undischarged           # timeouts, not exceptions
        assert all(o.stage == "undischarged" for o in result.undischarged)
        assert not result.all_proved


class TestPercentile:
    """Pin the nearest-rank percentile: ``values[ceil(q * n) - 1]``.

    The previous ``int(round(...))`` rank used banker's rounding, so the
    p50 of an even-length sample flipped between the lower and upper
    middle element as ``n`` grew; these cases fail under that formula.
    """

    def test_empty(self):
        from repro.exec.telemetry import percentile
        assert percentile([], 0.5) == 0.0

    def test_single_value(self):
        from repro.exec.telemetry import percentile
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.95) == 7.0

    def test_median_even_lengths_take_lower_middle(self):
        from repro.exec.telemetry import percentile
        # Nearest-rank median of an even n is element n/2 (1-based) --
        # the lower middle, for every even n, never the upper one.
        assert percentile([1.0, 2.0], 0.5) == 1.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
        assert percentile([float(i) for i in range(1, 7)], 0.5) == 3.0
        assert percentile([float(i) for i in range(1, 9)], 0.5) == 4.0

    def test_median_odd_lengths_take_middle(self):
        from repro.exec.telemetry import percentile
        assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0
        assert percentile([float(i) for i in range(1, 6)], 0.5) == 3.0
        assert percentile([float(i) for i in range(1, 8)], 0.5) == 4.0

    def test_p95_adjacent_sizes(self):
        from repro.exec.telemetry import percentile
        # ceil(0.95 * n): 19 -> 19th of 19, 20 -> 19th, 21 -> 20th.
        assert percentile([float(i) for i in range(1, 20)], 0.95) == 19.0
        assert percentile([float(i) for i in range(1, 21)], 0.95) == 19.0
        assert percentile([float(i) for i in range(1, 22)], 0.95) == 20.0

    def test_extremes(self):
        from repro.exec.telemetry import percentile
        values = [float(i) for i in range(1, 11)]
        assert percentile(values, 0.0) == 1.0    # clamped to first rank
        assert percentile(values, 1.0) == 10.0

    def test_exact_rank_no_float_drift(self):
        from repro.exec.telemetry import percentile
        # q * n lands exactly on an integer for many (q, n) pairs; the
        # epsilon must keep ceil from bumping the rank up.
        for n in (20, 40, 60, 100, 200):
            values = [float(i) for i in range(1, n + 1)]
            assert percentile(values, 0.05) == float(n // 20)
            assert percentile(values, 0.95) == float(19 * n // 20)
