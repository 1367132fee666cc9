"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/sweep.py                      # every workload, seed 1
    python3 perfbench/sweep.py --seeds 10 --out perfbench/baseline.json

Each run is a fresh ``run.py`` process.  For every workload and metric it
prints the median, the quartiles and the spread (interquartile distance
over the median) next to the metric's bound from BENCHMARK.json, and, for
the last run of each workload, the report lines that include the figures
that exist on some workloads only (``call_p90_s``, ``replicates_per_s``,
``series3_p50_s``, ``series2_p50_s``, ``error_rate``).  ``--trace`` adds
one traced run per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1]), time.perf_counter() - start


def summarise(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--trace", action="store_true", help="add one traced run per workload")
    p.add_argument("--out", type=Path, help="write the summary as JSON")
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        values: dict = {}
        attempted = failed = 0
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            report, result, wall = run(workload, seed, args.seconds, 0)
            walls.append(wall)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']}", flush=True)
        print(f"== {workload}: {attempted} calls, {failed} failed, run wall {statistics.median(walls):.1f} s")
        for line in report:
            print(f"   {line}")
        entry = {"attempted": attempted, "failed": failed, "run_wall_s": walls, "metrics": {}}
        for name, vals in values.items():
            s = summarise(vals)
            entry["metrics"][name] = {**s, "values": vals}
            print(
                f"   {name:14s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                f"  spread {s['spread']:.3f}  (bound {bounds[name]}, steady below {bounds[name] / 3:.3f})"
            )
        if args.trace:
            report, result, wall = run(workload, args.first_seed, args.seconds, 1)
            entry["trace"] = {name: m["value"] for name, m in result["metrics"].items()}
            entry["trace_correct"] = result["correct"]
            print(f"   traced run: {wall:.1f} s, correct={result['correct']}")
            for line in report:
                print(f"   {line}")
        summary[workload] = entry
    if args.out:
        host = {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "seeds": [args.first_seed, args.first_seed + args.seeds - 1],
            "run_seconds": args.seconds,
        }
        args.out.write_text(json.dumps({"host": host, "workloads": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
