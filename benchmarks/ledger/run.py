"""The ledger benchmark: one command, four workloads, end-to-end metrics
with a separate traced run for the per-layer ledger.

    python benchmarks/ledger/run.py [--workload W ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--repeat K] [--out F]
        [--compare BASE.json]

Each run starts ``workload.py`` in a fresh process; its set-up is timed
from process start to its ready message, and repeated in extra
set-up-only processes so that ``setup_s`` is a median.  End-to-end
times, ``setup_s`` included, are paced: converted to the reference pace
by the host's pace sampled in the workload process (``pace.py``); the
unpaced medians are printed beside them.  Outputs are
checked against recorded references; a run with a wrong output or a
failed operation makes the command exit with 1.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics, or with ``--trace`` the
per-layer ones).  ``--repeat K`` runs every workload K times with seeds
N, N+1, ... and prints each metric's spread; ``--out`` saves the runs,
and ``--compare`` classifies each (metric, workload) pair against a
saved file by the bounds in ``BENCHMARK.json``.  See README.md.
"""

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pace import paced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
WORK_DIR = ROOT / ".ledger-work"

#: Set-up-only processes timed before and after the measured process
#: of an untraced run, so that ``setup_s`` is the median of five set-ups
#: spread over the whole run.
SETUP_SAMPLES_AROUND = 2

#: Seconds a run may take beyond its measuring time.
SLACK_S = 150.0


class RunFailed(Exception):
    """A workload process that did not produce a result."""


class Child:
    """One workload process and its line-delimited JSON protocol."""

    def __init__(self, argv, env, deadline):
        self.deadline = deadline
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                     stdout=subprocess.PIPE,
                                     start_new_session=True)
        self._fd = self.proc.stdout.fileno()
        self._buffer = b""

    def read(self):
        while b"\n" not in self._buffer:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0:
                raise RunFailed("workload process timed out")
            ready, _, _ = select.select([self._fd], [], [], remaining)
            if ready:
                chunk = os.read(self._fd, 1 << 16)
                if not chunk:
                    code = self.proc.wait()
                    raise RunFailed(f"workload process exited with {code} "
                                    f"before reporting")
                self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(line)

    def close(self):
        """Wait for the process until the deadline, then stop what is
        left of its process group (forked workers included) and wait
        until the group is gone."""
        try:
            self.proc.wait(timeout=max(0.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()
        for _ in range(500):
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(WORK_DIR)
    env.pop("REPRO_CACHE_DIR", None)
    return env


def run_once(workload, seed, seconds, trace):
    """One measured run of ``workload``: a result dict."""
    WORK_DIR.mkdir(exist_ok=True)
    env = child_env()
    argv = [sys.executable, str(HERE / "workload.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    deadline = time.monotonic() + seconds + SLACK_S
    setup_s, raw_setup_s = [], []

    def ready(child, started):
        message = child.read()
        raw_setup_s.append(time.perf_counter() - started)
        if message["pace"] is not None:
            setup_s.append(paced(raw_setup_s[-1], message["pace"]))

    def set_up_only():
        for _ in range(0 if trace else SETUP_SAMPLES_AROUND):
            started = time.perf_counter()
            with Child(argv + ["--setup-only"], env, deadline) as child:
                ready(child, started)

    set_up_only()
    started = time.perf_counter()
    with Child(argv, env, deadline) as child:
        ready(child, started)
        result = child.read()["result"]
    if child.proc.returncode != 0:
        raise RunFailed(f"workload process exited with "
                        f"{child.proc.returncode}")
    set_up_only()
    metrics, raw = result["metrics"], result["raw"]
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setup_s),
                              "unit": "s"}
        raw["setup_s"] = statistics.median(raw_setup_s)
    return {"workload": workload, "seed": seed, "trace": trace,
            "correct": not result["errors"], "errors": result["errors"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics, "raw": raw}


def host():
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "loadavg_1min": os.getloadavg()[0]}


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median (0 for a single value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def series(runs):
    """``{(workload, metric): [values]}`` over untraced runs."""
    out = {}
    for run in runs:
        if run["trace"]:
            continue
        for name, metric in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(
                metric["value"])
    return out


def classify(base, current, bound, better):
    """better / same / worse / unresolved for one (metric, workload)."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (statistics.median(current) - statistics.median(base)) \
        / statistics.median(base)
    if max(spread(base), spread(current)) > bound:
        if all(sign * (c - b) < 0 for c in current for b in base):
            return "better", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def compare(base_runs, runs, spec):
    """Print one verdict per (metric, workload); True if none is worse."""
    base, current = series(base_runs), series(runs)
    ok = True
    print("compare (change > 0 is worse):")
    for metric in spec["end_to_end"]:
        for workload in spec_workloads(spec):
            key = (workload, metric["name"])
            if key not in base or key not in current:
                continue
            verdict, change = classify(base[key], current[key],
                                       metric["bound"], metric["better"])
            ok = ok and verdict != "worse"
            print(f"  {workload:12s} {metric['name']:15s} "
                  f"{100 * change:+7.2f}%  bound {100 * metric['bound']:.0f}%"
                  f"  {verdict}")
    return ok


def spec_workloads(spec):
    return [w["name"] for w in spec["workloads"]]


def print_spreads(runs, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("spread over runs (quartile distance / median):")
    for (workload, name), values in sorted(series(runs).items()):
        share = spread(values)
        print(f"  {workload:12s} {name:15s} median "
              f"{statistics.median(values):12.4f}  spread "
              f"{100 * share:6.2f}%  bound {100 * bounds[name]:.0f}%"
              f"{'  UNSTEADY' if share >= bounds[name] / 3 else ''}")


def summary(runs):
    """The final JSON line: one run's metrics, or medians over runs."""
    keyed = len({r["workload"] for r in runs}) > 1
    values, units = {}, {}
    for run in runs:
        for name, metric in run["metrics"].items():
            key = f"{run['workload']}.{name}" if keyed else name
            values.setdefault(key, []).append(metric["value"])
            units[key] = metric["unit"]
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {key: {"value": statistics.median(v), "unit": units[key]}
                    for key, v in values.items()},
    }


def main(argv=None):
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        choices=spec_workloads(spec),
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report the per-layer ledger instead")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path, metavar="BASE.json")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.repeat < 1:
        parser.error("--seconds and --repeat must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    base_runs = json.loads(args.compare.read_text())["runs"] \
        if args.compare else None

    record = {"schema": "ledger/v1", "host": host(),
              "seconds": args.seconds, "runs": []}
    print(f"host: {json.dumps(record['host'])}", flush=True)
    try:
        for workload in args.workload or spec_workloads(spec):
            for k in range(args.repeat):
                run = run_once(workload, args.seed + k, args.seconds,
                               args.trace)
                record["runs"].append(run)
                print(f"{workload} seed {run['seed']}: attempted "
                      f"{run['attempted']}, failed {run['failed']}, "
                      f"correct {run['correct']}", flush=True)
                for error in run["errors"]:
                    print(f"  ERROR {error}", flush=True)
                for name, metric in run["metrics"].items():
                    print(f"  {name:32s} {metric['value']:14.6f} "
                          f"{metric['unit']}", flush=True)
                if run["raw"]:
                    print("  unpaced: " + ", ".join(
                        f"{name} {value:.6g}"
                        for name, value in run["raw"].items()), flush=True)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    record["host"]["loadavg_1min_end"] = os.getloadavg()[0]
    print(f"loadavg_1min_end: {record['host']['loadavg_1min_end']}")
    runs = record["runs"]
    if args.repeat > 1:
        print_spreads(runs, spec)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    ok = True
    if base_runs is not None:
        ok = compare(base_runs, runs, spec)
    result = summary(runs)
    print(json.dumps(result), flush=True)
    return 0 if ok and result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
