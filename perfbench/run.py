"""fkmoments benchmark: one workload, one fresh process, one closed loop.

    python3 perfbench/run.py --workload frac-importance-heat --seed 1 \
        --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory, never from an installed copy.  The process sets up the
workload (import, build, one warm-up call per call class), then calls the
library in a closed loop with one client for ``--seconds`` seconds, in
whole passes over the workload's call list.  Between calls, at evenly
spaced times of the loop, it repeats the set-up in ``SETUPS - 1`` fresh
child processes.  Every call's result is checked against a reference.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` measures half
the time untraced, then replays the same calls with the span recorder of
``spans.py`` installed, and reports the per-layer metrics; traced and
untraced results must agree bit for bit.  Human-readable lines come
first; the last line of standard output is one JSON object.  Spans and
per-call results are written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("frac-importance-heat", "frac-uniform-mix", "frac-large-threads", "oracle-series")

END_TO_END_UNITS = {"setup_s": "s", "call_p50_s": "s", "peak_rss_mb": "MB"}

# set-ups per run: the run's own, then SETUPS - 1 in fresh child processes
# spread over the loop.  ``setup_s`` is the fastest of them: a set-up lasts
# about a second, and on a shared machine the set-ups of one run can range
# over 50%, so their median moves with every burst of load.
SETUPS = 5

# The library's own parallelism is the estimators' ``workers``.  A BLAS
# pool in the oracle's dot products doubles an n_max = 3 series (8.5 s to
# 16.4 s on 2 cores) whenever another process holds the second core, so the
# benchmark pins it to one thread and measures the library, not the load.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrink every call (smoke test)")
    p.add_argument(
        "--wrong-reference",
        action="store_true",
        help="shift every reference by 1 so that every call must fail (smoke test)",
    )
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    return args


def set_up(args):
    """Import, build and warm up; returns (workload, {stage: seconds})."""
    t0 = time.perf_counter()
    import fkmoments

    t1 = time.perf_counter()
    if Path(fkmoments.__file__).resolve().parent != SRC / "fkmoments":
        raise SystemExit(f"imported fkmoments from {fkmoments.__file__}, not from {SRC}")
    import workloads

    workload = workloads.build(args.workload, args.seed, args.tiny)
    t2 = time.perf_counter()
    workloads.warm_up(workload, args.seed)
    t3 = time.perf_counter()
    return workload, {"import_s": t1 - t0, "build_s": t2 - t1, "warmup_s": t3 - t2, "setup_s": t3 - t0}


def set_up_in_child(args) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload, seed, shift, seconds=None, passes=None, between=None):
    """Closed loop over whole passes; returns (call records, passes made).

    Stops after ``passes`` passes, or, at the end of a pass, when another
    pass of average length would end after ``seconds``; at least one pass
    is made.  An exception counts as a failed call.  ``between``, if given,
    is called with the seconds elapsed after every call.
    """
    records = []
    start = time.perf_counter()
    for done, calls in enumerate(workload.passes(seed), 1):
        for spec, call_seed in calls:
            t0 = time.perf_counter()
            try:
                result = spec.invoke(call_seed)
            except Exception:
                traceback.print_exc()
                records.append(
                    {"cls": spec.cls, "label": spec.label, "seed": call_seed, "ok": False, "result": False}
                )
                continue
            elapsed = time.perf_counter() - t0
            records.append(
                {
                    "cls": spec.cls,
                    "label": spec.label,
                    "seed": call_seed,
                    "ok": spec.passes(result, shift),
                    "result": True,
                    "seconds": elapsed,
                    "value": spec.value(result),
                    "uncertainty": spec.uncertainty(result),
                    "reference": spec.reference,
                    "replicates": spec.replicates,
                }
            )
            if between:
                between(time.perf_counter() - start)
        if passes is not None and done >= passes:
            return records, done
        if passes is None and (time.perf_counter() - start) * (done + 1) / done > seconds:
            return records, done


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def per_class(records, stat):
    """{class: [stat(record), ...]} over calls that returned a result."""
    out: dict = {}
    for r in records:
        if r["result"]:
            out.setdefault(r["cls"], []).append(stat(r))
    return out


def call_p50(records) -> float:
    """Geometric mean over call classes of the median call seconds."""
    return _geomean(statistics.median(v) for v in per_class(records, lambda r: r["seconds"]).values())


def fastest(setups) -> dict:
    return min(setups, key=lambda s: s["setup_s"])


def end_to_end(records, setups):
    metrics = {
        "setup_s": fastest(setups)["setup_s"],
        "call_p50_s": call_p50(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}


def report_lines(records, metrics):
    """Every end-to-end figure, including those that are not gated: they
    exist on some workloads only, or spread too much between runs."""
    lines = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    work = per_class(records, lambda r: (r["uncertainty"] / r["reference"]) ** 2 * r["seconds"])
    wnv = _geomean(statistics.median(v) for v in work.values())
    lines.append(f"work_norm_var = {wnv:.6g} s")
    times = per_class(records, lambda r: r["seconds"])
    for cls, secs in sorted(times.items()):
        lines.append(f"call_p50_s[{cls}] = {statistics.median(secs):.6g} s (n={len(secs)})")
        if len(secs) >= 100:  # at least ten samples beyond the 90th percentile
            p90 = statistics.quantiles(secs, n=10)[8]
            lines.append(f"call_p90_s[{cls}] = {p90:.6g} s (n={len(secs)})")
        if cls.startswith("series"):
            lines.append(f"{cls}_p50_s = {statistics.median(secs):.6g} s (n={len(secs)})")
    mc = [r for r in records if r["result"] and r["replicates"]]
    if mc:
        rate = sum(r["replicates"] for r in mc) / sum(r["seconds"] for r in mc)
        lines.append(f"replicates_per_s = {rate:.6g} 1/s")
    return lines


def run(args) -> dict:
    workload, own_setup = set_up(args)
    shift = 1.0 if args.wrong_reference else 0.0
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    untraced_s = args.seconds if args.trace == 0 else args.seconds / 2
    setups = [own_setup]

    def between(elapsed):
        # child set-up number i is due at i / SETUPS of the untraced loop
        if len(setups) < SETUPS and elapsed >= len(setups) * untraced_s / SETUPS:
            setups.append(set_up_in_child(args))

    records, passes = measure(workload, args.seed, shift, seconds=untraced_s, between=between)
    while len(setups) < SETUPS:
        setups.append(set_up_in_child(args))
    if args.trace == 0:
        traced = []
    else:
        import spans

        recorder = spans.SpanRecorder()
        recorder.install(workload.kernels)
        try:
            traced, _ = measure(workload, args.seed, shift, passes=passes)
        finally:
            recorder.uninstall()
        recorder.write(OUT / f"spans-{stem}.jsonl")
    # traced calls replay the untraced ones and must reproduce them exactly
    for a, b in zip(records, traced):
        if b["result"] and (a.get("value"), a.get("uncertainty")) != (b["value"], b["uncertainty"]):
            b["ok"] = False
    attempted = len(records) + len(traced)
    failed = sum(not r["ok"] for r in records + traced)
    print(f"error_rate = {failed / attempted:.6g} ratio ({failed} of {attempted} calls)")
    with open(OUT / f"calls-{stem}.jsonl", "w") as out:
        for phase, recs in (("untraced", records), ("traced", traced)):
            for r in recs:
                out.write(json.dumps({"phase": phase, **r}) + "\n")
    print("setup_s[each] = " + " ".join(f"{s['setup_s']:.4f}" for s in setups) + " s")
    if args.trace == 0:
        metrics = end_to_end(records, setups)
        for line in report_lines(records, metrics):
            print(line)
    else:
        layers = spans.layer_metrics(recorder.spans, len(traced))
        layers["setup.import_s"] = fastest(setups)["import_s"]
        layers["setup.warmup_s"] = fastest(setups)["warmup_s"]
        layers["trace.overhead"] = call_p50(traced) / call_p50(records)
        metrics = {name: (layers[name], spans.LAYER_METRICS[name][0]) for name in spans.LAYER_METRICS}
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fkmoments" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if args.setup_only:
        _, timings = set_up(args)
        print(json.dumps(timings))
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
