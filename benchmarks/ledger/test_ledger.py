"""Tests of the ledger benchmark's own code: the span recorder, the
percentile and comparison rules, and ``BENCHMARK.json``.

    python -m pytest benchmarks/ledger -q
"""

import json
import re
import signal
import sys
import threading
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run          # noqa: E402
import trace        # noqa: E402
import workload     # noqa: E402
from layers import LAYERS  # noqa: E402
from pace import INTERVAL_S, REFERENCE_S, Pace, paced  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    clock = Clock()
    monkeypatch.setattr(trace.time, "perf_counter", clock)
    return clock


def _layer(recorder, clock, name, *steps):
    """``name`` wrapped around a body that runs ``steps`` in order: a
    number advances the clock by that many seconds, a callable is
    called."""

    def body():
        for step in steps:
            if callable(step):
                step()
            else:
                clock.now += step

    return recorder.wrap(name, body)


def test_self_time_subtracts_child_spans(clock):
    recorder = trace.Recorder()
    recorder.active = True
    leaf = _layer(recorder, clock, "leaf", 0.5)
    first = _layer(recorder, clock, "inner", 2.0, leaf)
    second = _layer(recorder, clock, "inner", 2.0)
    _layer(recorder, clock, "outer", 1.0, first, 0.5, second, 4.0)()
    layers = recorder.layers()
    assert clock.now == 10.0
    assert layers["leaf"] == (0.5, 1)
    assert layers["inner"] == (4.0, 2)      # (3.5 - 1 - 0.5) + (6 - 4)
    assert layers["outer"] == (5.5, 1)      # 10 - 2.5 - 2
    assert sum(s for s, _ in layers.values()) == 10.0


def test_inactive_recorder_records_nothing(clock):
    recorder = trace.Recorder()
    _layer(recorder, clock, "outer", 1.0)()
    assert recorder.wrap("f", lambda: 7)() == 7
    assert recorder.layers() == {}


def test_spans_nest_per_thread():
    recorder = trace.Recorder()
    recorder.active = True
    entered, release = threading.Event(), threading.Event()

    def other():
        entered.set()
        release.wait(5)

    def main():
        thread.start()
        assert entered.wait(5)

    thread = threading.Thread(target=recorder.wrap("other", other))
    recorder.wrap("main", main)()
    release.set()
    thread.join(5)
    assert not thread.is_alive()
    layers = recorder.layers()
    # Neither span is the other's child, so neither loses self time.
    assert layers["main"][1] == layers["other"][1] == 1
    assert layers["main"][0] > 0 and layers["other"][0] > 0


def _fake_package(monkeypatch):
    """``fakepkg.core`` defines ``work`` and ``Base``/``Child``;
    ``fakepkg.user`` holds a ``from core import work`` copy."""
    core = types.ModuleType("fakepkg.core")

    def work(x):
        return x + 1

    class Base:
        def apply(self):
            return "base"

    class Child(Base):
        def apply(self):
            return "child+" + super().apply()

    class Plain(Base):
        pass

    core.work, core.Base, core.Child, core.Plain = work, Base, Child, Plain
    user = types.ModuleType("fakepkg.user")
    user.work = work
    package = types.ModuleType("fakepkg")
    package.core, package.user = core, user
    for module in (package, core, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return core, user


def test_instrument_rebinds_wraps_and_restores(monkeypatch):
    core, user = _fake_package(monkeypatch)
    original = core.work
    apply_base, apply_child = core.Base.apply, core.Child.apply
    seen = []
    recorder = trace.Recorder()
    layers = {"work": ["fakepkg.core:work"],
              "apply": ["fakepkg.core:Base.apply+"]}
    observers = {"work": lambda rec, args, kwargs, result, seconds:
                 seen.append((args, result))}
    with trace.instrument(recorder, layers, observers):
        recorder.active = True
        assert core.work(1) == 2 and user.work(2) == 3
        late = types.ModuleType("fakepkg.late")     # imported while live
        late.work = core.work
        monkeypatch.setitem(sys.modules, "fakepkg.late", late)
        assert core.Child().apply() == "child+base"
        assert core.Plain().apply() == "base"
        recorder.active = False
    assert recorder.layers()["work"][1] == 2
    assert recorder.layers()["apply"][1] == 3    # Child, its super, Plain
    assert seen == [((1,), 2), ((2,), 3)]
    assert core.work is original and user.work is original
    assert late.work is original
    assert core.Base.apply is apply_base and core.Child.apply is apply_child
    assert "apply" not in core.Plain.__dict__


def test_nearest_rank():
    values = list(range(10, 0, -1))
    assert workload.nearest_rank(values, 0.50) == 5
    assert workload.nearest_rank(values, 0.90) == 9
    assert workload.nearest_rank(list(range(1, 101)), 0.90) == 90
    assert workload.nearest_rank(list(range(1, 102)), 0.90) == 91
    assert workload.nearest_rank([4.0, 1.0], 0.50) == 1.0
    assert workload.nearest_rank([7.0], 0.90) == 7.0


def test_pace_is_the_harmonic_mean_of_the_span_or_the_latest():
    pace = Pace()
    pace.samples = [4.0] * 8 + [1.0, 2.0, 4.0, 4.0] * 2
    assert pace.since(8) == pytest.approx(2.0)       # 8 / (2 * 2.0)
    assert pace.since(12) == pytest.approx(2.0)      # too few: last 8
    assert pace.since(16) == pytest.approx(2.0)
    assert pace.since(0) == pytest.approx(16 / 6.0)
    # Twice the probe cost is half the speed: a time counts half.
    assert paced(3.0, 2 * REFERENCE_S) == pytest.approx(1.5)


def test_pace_samples_while_started_and_restores_the_signal():
    pace = Pace()
    pace.start()
    try:
        deadline = time.monotonic() + 20 * INTERVAL_S
        while time.monotonic() < deadline or not pace.samples:
            sum(range(1000))
    finally:
        pace.stop()
    count = len(pace.samples)
    time.sleep(3 * INTERVAL_S)
    assert len(pace.samples) == count > 0
    assert all(s > 0 for s in pace.samples)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_spread_and_classify():
    assert run.spread([5.0]) == 0.0
    assert run.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert run.classify(steady, steady, 0.05, "lower")[0] == "same"
    slower = [v * 1.2 for v in steady]
    assert run.classify(steady, slower, 0.05, "lower")[0] == "worse"
    assert run.classify(steady, slower, 0.05, "higher")[0] == "better"
    noisy = [50.0, 100.0, 150.0, 200.0, 250.0]
    assert run.classify(steady, noisy, 0.05, "lower")[0] == "unresolved"
    faster_noisy = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert run.classify(steady, faster_noisy, 0.05, "lower")[0] == "better"


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/ledger"]
    assert spec["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"]
        assert len(w["why"]) <= 200
    ends = {m["name"]: m for m in spec["end_to_end"]}
    assert set(ends) == set(workload.END_TO_END) | {"setup_s"}
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        assert m["unit"] == workload.END_TO_END.get(m["name"], "s")
    assert ends["setup_s"]["bound"] == max(m["bound"] for m in ends.values())
    units = workload.per_layer_units(LAYERS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")


def test_every_layer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE.parents[1] / "src"))
    for targets in LAYERS.values():
        for target in targets:
            owner, attribute, _ = trace.resolve(target)
            assert callable(getattr(owner, attribute)), target
