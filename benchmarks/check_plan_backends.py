"""A capped AES planner search on serial and on the process backend must
agree, and the process search must leave no worker behind.

    PYTHONPATH=src python benchmarks/check_plan_backends.py

Runs ``plan_aes(max_expansions=3, trials=2)`` with no result cache on
``serial`` and on ``process, jobs=2``.  Exits 1 unless the chain
digest, the step tokens, the final evaluation, the evaluation and
validation counts and the chain's edges by evidence level are equal,
and no child process is alive once the process search has returned
(DESIGN.md §11, §22, §23).
"""

import multiprocessing
import sys

from repro.exec import ExecConfig
from repro.plan import plan_aes


def search(backend: str, jobs: int) -> dict:
    result = plan_aes(trials=2, max_expansions=3, exec=ExecConfig(
        jobs=jobs, backend=backend, cache=False))
    return {
        "chain_digest": result.chain_digest,
        "steps": [step.token for step in result.steps],
        "final_evaluation": result.to_json()["final_evaluation"],
        "evaluations": result.evaluations,
        "validations": result.validations,
        "edge_levels": result.edge_levels,
    }


def main() -> int:
    serial = search("serial", 1)
    process = search("process", 2)
    survivors = multiprocessing.active_children()
    for name in serial:
        if serial[name] != process[name]:
            print(f"{name} differs: serial {serial[name]!r}, "
                  f"process {process[name]!r}")
    if survivors:
        print(f"worker processes outlived the search: {survivors}")
    ok = serial == process and not survivors
    print(f"plan backends {'agree' if ok else 'DIFFER'}: chain "
          f"{serial['chain_digest'][:16]}, {len(serial['steps'])} steps, "
          f"{serial['evaluations']} evaluations, "
          f"{serial['validations']} validations, edges by level "
          f"{serial['edge_levels']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
