"""Recompute the frozen references in ``reference.json``.

    python3 perfbench/make_reference.py

The references are computed once and frozen, so that a change to the
library cannot move its own yardstick:

* ``oracle``: the series total and heuristic tail of every
  ``oracle-series`` query; the A6 estimator calls are checked against the
  ``n3-t0.5-s0.5`` entry;
* ``poisson_bump``: the d = 2 Poisson-kernel/bump second moment from a
  long importance-mode run (independent of the uniform mode the benchmark
  times), with its standard error.

It takes about two minutes on two cores.
"""

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fkmoments as fk  # noqa: E402

import workloads as wl  # noqa: E402

POISSON_BUMP_RUNS = 20
POISSON_BUMP_REPLICATES = 5_000_000


def main() -> None:
    oracle = {}
    for label, n_max, t, s, x, y in wl.ORACLE_QUERIES:
        series = wl.oracle_query(n_max, t, s, x, y)()
        oracle[label] = {"total": series.total, "tail": series.tail_estimate}
        print(label, oracle[label], flush=True)
    q, k, f, u0 = wl.poisson_bump_problem()
    runs = [
        fk.estimate_second_moment_fractional(
            q,
            k,
            f,
            u0,
            fk.EstimatorConfig(replicates=POISSON_BUMP_REPLICATES, seed=seed, mode="importance"),
        )
        for seed in range(1, POISSON_BUMP_RUNS + 1)
    ]
    value = math.fsum(r.value for r in runs) / len(runs)
    stderr = math.sqrt(math.fsum(r.stderr**2 for r in runs)) / len(runs)
    reference = {
        "poisson_bump": {
            "value": value,
            "stderr": stderr,
            "replicates": POISSON_BUMP_RUNS * POISSON_BUMP_REPLICATES,
            "mode": "importance",
        },
        "oracle": oracle,
    }
    wl.REFERENCE_FILE.write_text(json.dumps(reference, indent=2) + "\n")
    print(json.dumps(reference, indent=2))


if __name__ == "__main__":
    main()
