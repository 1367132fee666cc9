"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it checks that

* an untraced run prints every end-to-end metric with its unit, is
  correct, and reports ``error_rate = 0``;
* a traced run prints every per-layer metric with its unit, and its traced
  calls reproduce the untraced run's values and stderrs bit for bit;
* every span's children lie inside it, and children in one thread do not
  overlap, so that there self time plus the children's durations adds up
  to the span's duration;
* the workloads isolate their layers: no tilted sampling on
  ``frac-uniform-mix`` or ``oracle-series``, no ``det_qsum_*`` on the Monte
  Carlo workloads, no ``mc_engine`` span on ``oracle-series``;
* with every reference shifted, every call fails (error rate 1), so the
  correctness gate is not vacuous.

Exits 0 when every check holds.  It takes under a minute.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import spans as sp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
EPS = 1e-9

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print(f"FAIL {what}")


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED)]
    cmd += ["--seconds", "0", "--trace", str(trace), "--tiny", *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    check(done.returncode == 0, f"{workload}: {' '.join(cmd[2:])} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_metrics(workload, result, declared):
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys")
    got = result["metrics"]
    check(list(got) == [m["name"] for m in declared], f"{workload}: metric names {list(got)}")
    for m in declared:
        entry = got.get(m["name"], {})
        check(entry.get("unit") == m["unit"], f"{workload}: unit of {m['name']}")
        check(math.isfinite(entry.get("value", math.nan)), f"{workload}: value of {m['name']}")


def calls(workload, trace, phase):
    path = HERE / "out" / f"calls-{workload}-seed{SEED}-trace{trace}.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    return [(r["cls"], r["seed"], r["value"], r["uncertainty"]) for r in rows if r["phase"] == phase]


def check_spans(workload):
    path = HERE / "out" / f"spans-{workload}-seed{SEED}-trace1.jsonl"
    spans = [sp.Span(**json.loads(line)) for line in path.read_text().splitlines()]
    check(spans, f"{workload}: no spans recorded")
    kids = sp.children_of(spans)
    for span in spans:
        children = kids.get(span.id, [])
        inside = all(span.start <= c.start and c.end <= span.end for c in children)
        check(inside, f"{workload}: span {span.id} has children outside it")
        if len({c.thread for c in children}) <= 1:
            summed = sum(c.duration for c in children)
            check(abs(summed - sp.covered(span, children)) <= EPS, f"{workload}: span {span.id} children overlap in one thread")
    return spans


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (w["name"] for w in bench["workloads"]):
        print(f"== {w}", flush=True)
        report, result = run(w, 0)
        check_metrics(w, result, bench["end_to_end"])
        check(result["correct"] and result["failed"] == 0, f"{w}: untraced run not correct")
        check(any(line.startswith("error_rate = 0 ratio") for line in report), f"{w}: error_rate line")

        _, result = run(w, 1)
        check_metrics(w, result, bench["per_layer"])
        check(result["correct"] and result["failed"] == 0, f"{w}: traced run not correct")
        untraced = calls(w, 0, "untraced")
        check(untraced and untraced == calls(w, 1, "traced"), f"{w}: traced results differ from untraced")
        spans = check_spans(w)
        layer = {name: m["value"] for name, m in result["metrics"].items()}
        if w in ("frac-uniform-mix", "oracle-series"):
            check(layer["point_process.sample_eta_tilted.calls"] == 0, f"{w}: tilted sampler called")
        if w == "oracle-series":
            check(not any(s.name.startswith("mc_engine.") for s in spans), f"{w}: mc_engine span")
        else:
            for n in (2, 3):
                check(layer[f"gaussian_paths.det_qsum_{n}.calls"] == 0, f"{w}: det_qsum_{n} called")

        _, result = run(w, 0, "--wrong-reference")
        wrong = result["failed"] == result["attempted"] and not result["correct"]
        check(wrong, f"{w}: a wrong reference did not fail every call")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
