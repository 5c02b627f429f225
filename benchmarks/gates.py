"""What the CI gates share: one serial reference, one verdict key and one
results file.

Every gate judges a backend, a farm shape or a replay against the same
fixed reference, the serial implementation proof (DESIGN.md section 1).
:func:`aes_reference` runs it once per process; :func:`verdict_keys` is
the per-VC comparison; :func:`record` merges a gate's numbers into
``BENCH_gates.json`` (schema ``bench-gates/v1``) at the repository root.

A plain module, not a ``conftest.py``: a conftest here would also load
under ``pytest benchmarks/ledger``.  The gates run under pytest only::

    PYTHONPATH=src REPRO_BENCH_CHECK=1 python -m pytest \\
        benchmarks/bench_hotpath.py benchmarks/bench_faults.py \\
        benchmarks/bench_incr.py benchmarks/bench_farm.py \\
        benchmarks/bench_plan.py -q -s
"""

import functools
import json
import os
import platform
import time
from pathlib import Path

from repro.aes.annotations import annotated_package
from repro.aes.proof_scripts import aes_proof_scripts
from repro.exec import ExecConfig
from repro.prover import ImplementationProof

RESULTS = Path(__file__).resolve().parent.parent / "BENCH_gates.json"
SCHEMA = "bench-gates/v1"


def verdict_keys(result, *, method=False):
    """One row per VC: identity, stage and verdict (plus the proving
    method when ``method``)."""
    return [(o.vc.subprogram, o.vc.name, o.vc.kind, o.stage,
             o.result.proved if o.result else None)
            + ((o.result.method if o.result else None,) if method else ())
            for o in result.outcomes]


@functools.lru_cache(maxsize=None)
def aes_reference():
    """``(result, seconds)`` of the serial, cache-off, scripted AES
    implementation proof, run once per process."""
    started = time.perf_counter()
    result = ImplementationProof(
        annotated_package(), scripts=aes_proof_scripts(),
        exec=ExecConfig(jobs=1, backend="serial", cache=False)).run()
    seconds = time.perf_counter() - started
    assert result.feasible, "the serial reference proof is not feasible"
    assert not result.undischarged, \
        f"the serial reference left {len(result.undischarged)} VCs " \
        f"undischarged"
    return result, seconds


def record(gate, payload):
    """Merge ``payload`` into ``BENCH_gates.json`` under ``gate``; the
    other gates' entries are kept."""
    try:
        data = json.loads(RESULTS.read_text())
    except (OSError, ValueError):
        data = {}
    gates = data.get("gates", {}) if data.get("schema") == SCHEMA else {}
    gates[gate] = payload
    data = {"schema": SCHEMA, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "gates": gates}
    RESULTS.write_text(json.dumps(data, indent=2) + "\n")
    print(f"results           {RESULTS.name} [{gate}]")
