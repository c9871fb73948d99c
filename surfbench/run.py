"""Run one surfbench workload for a time budget and print its metrics.

    python3 surfbench/run.py --workload bdf2-sphere-160 --seed 1 \
        --seconds 40 --trace 0

Runs of the workload are made one after another, each in a fresh process
with single-threaded BLAS/OpenMP, while the next is expected to end within
`--seconds` (at least one run; with `--trace 1` each round is an untraced
and a traced run).  Every run must pass its correctness gate; a failed
run counts in `failed` and gives no timing.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"},
with the end-to-end metrics for `--trace 0` and the per-layer metrics for
`--trace 1`, each the median over the runs that passed.
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

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
    "err_max": "1",
}
PER_LAYER_UNITS = dict(tracing.LAYER_UNITS, **{
    "discretization.peak_rss_mb": "MB",
    "trace.overhead": "ratio",
})
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0     # a whole invocation must end within 180 s
SPANS_DIR = HERE / "out"


def machine_facts():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {v: "1" for v in THREAD_VARS}}


def run_child(workload, seed, traced, timeout, spans_path):
    """One workload run in a fresh process; its record, or a failure."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    if traced:
        cmd += ["--spans", str(spans_path)]
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "reason": f"run exceeded {timeout:.0f} s",
                "traced": traced, "timeout": True}
    if proc.returncode != 0:
        return {"ok": False, "traced": traced,
                "reason": f"run exited with code {proc.returncode}"}
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["traced"] = traced
    return record


def measure(workload, seed, seconds, trace):
    """Rounds of runs while the next one is expected to end within `seconds`.

    The first round always runs; a later one starts only if a round of
    median length would still end inside the budget.
    """
    SPANS_DIR.mkdir(exist_ok=True)
    start = time.perf_counter()
    records, rounds = [], []
    while True:
        t0 = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            left = RUN_LIMIT_S - (time.perf_counter() - start)
            spans = SPANS_DIR / f"spans-{workload}-seed{seed}-{len(records)}.json"
            records.append(run_child(workload, seed, traced, left, spans))
        rounds.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if (any(r.get("timeout") for r in records)
                or elapsed + statistics.median(rounds) > seconds
                or elapsed + max(rounds) > RUN_LIMIT_S):
            return records


def summarize(records, trace):
    """The result object: medians over passing runs, plus run counts."""
    passed = [r for r in records if r["ok"]]
    plain = [r for r in passed if not r["traced"]]
    traced = [r for r in passed if r["traced"]]
    failed = len(records) - len(passed)
    samples = {}
    if trace and plain and traced:
        samples = {name: [r["layers"][name] for r in traced]
                   for name in traced[0]["layers"]}
        samples["trace.overhead"] = [
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in plain) - 1.0]
        units = PER_LAYER_UNITS
    elif not trace and plain:
        samples = {
            "wall_s": [r["wall_s"] for r in plain],
            "setup_s": [t for r in plain for t in r["setup_times"]],
            "solve_s": [r["solve_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
            "err_max": [r["err_max"] for r in plain],
        }
        units = END_TO_END_UNITS
    metrics = {}
    for name, vals in samples.items():
        # a count's median is one of its samples, so it stays a whole number
        pick = (statistics.median_low if units[name] == "count"
                else statistics.median)
        metrics[name] = {"value": pick(vals), "unit": units[name]}
    return {"correct": failed == 0 and bool(metrics),
            "attempted": len(records), "failed": failed,
            "metrics": metrics}, samples


def report(workload, seed, trace, records, result, samples):
    """Human-readable lines ahead of the JSON line."""
    print(f"surfbench {workload} seed={seed} trace={trace}")
    print("machine " + json.dumps(machine_facts()))
    for r in records:
        if not r["ok"]:
            print(f"FAILED run ({'traced' if r['traced'] else 'untraced'}): "
                  f"{r['reason']}")
    for missing in sorted({m for r in records for m in r.get("untraced", ())}):
        print(f"not traced, absent from the package: {missing}")
    def fmt(value):
        return str(value) if isinstance(value, int) else f"{value:.6g}"

    for name, entry in result["metrics"].items():
        vals = samples[name]
        print(f"  {name:40s} {fmt(entry['value'])} {entry['unit']}  "
              f"(median; min {fmt(min(vals))}, max {fmt(max(vals))}; "
              f"n={len(vals)})")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'fail_frac':40s} {failed / attempted:.6g}  "
          f"({failed} of {attempted} runs)")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    missing = [p for p in (ROOT / "src" / "surfpde" / "__init__.py",
                           ROOT / "tests" / "reference_values.py")
               if not p.is_file()]
    if missing:
        print(f"surfbench: missing {', '.join(map(str, missing))}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    records = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    return emit(args.workload, args.seed, args.trace, records)


def emit(workload, seed, trace, records):
    """Print the report and the result line; the exit code."""
    result, samples = summarize(records, bool(trace))
    report(workload, seed, trace, records, result, samples)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
