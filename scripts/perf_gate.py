#!/usr/bin/env python3
"""Perf gate: run every workload of BENCHMARK.json through the repo benchmark
and compare its end-to-end metrics with a checked-in baseline.

    python3 scripts/perf_gate.py

Run it from anywhere; it works in the repository root. For each workload it
runs BENCHMARK.json's command (perfbench/run.py) with --seed 0, --trace 0 and
--seconds set to BENCHMARK.json's run_seconds, and reads the result JSON on
the last line of its output. It fails when a run is not correct, when an
iteration failed, or when a workload gave no result or is missing from the
baseline.

A metric counts as regressed only when it is worse, in its `better`
direction, than the baseline median by more than both its `bound` from
BENCHMARK.json (a fraction of the median) and the baseline's interquartile
range. The baseline, bench/baselines/perfbench_baseline.json, holds per
workload and metric the quartiles of BASELINE_RUNS run.py medians. When the
file does not exist, the gate records it instead of comparing (that is how
`scripts/check.sh --rebaseline` refreshes it); commit the result.
"""

import json
import os
import statistics
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK = os.path.join(REPO, "BENCHMARK.json")
BASELINE = os.path.join(REPO, "bench", "baselines", "perfbench_baseline.json")
BASELINE_RUNS = 5


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(benchmark, workload):
    """One run.py run; its result dict, or None when it gave none."""
    cmd = benchmark["command"] + ["--workload", workload, "--seed", "0",
                                  "--seconds", str(benchmark["run_seconds"]),
                                  "--trace", "0"]
    proc = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def run_failures(workload, result):
    """Why one run.py result cannot be used; empty when it can."""
    if result is None:
        return [f"{workload}: run.py gave no result"]
    failures = []
    if not result.get("correct"):
        failures.append(f"{workload}: run.py reports correct=false")
    if result.get("failed", 0) > 0:
        failures.append(f"{workload}: {result['failed']} of "
                        f"{result.get('attempted')} iterations failed")
    return failures


def compare(end_to_end, baseline, results):
    """Failure messages for `results` ({workload: run.py result or None})
    against `baseline` ({workload: {metric: {"q1", "median", "q3"}}}); each
    entry of `end_to_end` is a BENCHMARK.json metric (name, better, bound)."""
    failures = []
    for workload, result in results.items():
        problems = run_failures(workload, result)
        if workload not in baseline:
            problems.append(f"{workload}: missing from the baseline")
        failures += problems
        if problems:
            continue
        for metric in end_to_end:
            name = metric["name"]
            base = baseline[workload].get(name)
            value = result["metrics"].get(name, {}).get("value")
            if base is None or value is None:
                failures.append(f"{workload} {name}: missing from the "
                                f"{'baseline' if base is None else 'run'}")
                continue
            median = base["median"]
            worse = value - median if metric["better"] == "lower" else median - value
            iqr = base["q3"] - base["q1"]
            if worse > metric["bound"] * median and worse > iqr:
                failures.append(
                    f"{workload} {name}: {value:.6g} vs baseline median {median:.6g}"
                    f" ({100 * worse / median:+.1f}% worse; bound "
                    f"{100 * metric['bound']:.0f}%, baseline IQR {iqr:.6g})")
    return failures


def record(benchmark):
    """Run every workload BASELINE_RUNS times, round-robin, and write the
    quartiles of the run medians."""
    names = [m["name"] for m in benchmark["end_to_end"]]
    medians = {w["name"]: {n: [] for n in names} for w in benchmark["workloads"]}
    for _ in range(BASELINE_RUNS):
        for workload, samples in medians.items():
            result = run_workload(benchmark, workload)
            failures = run_failures(workload, result)
            if failures:
                sys.exit("perf_gate: cannot record a baseline: " + "; ".join(failures))
            for name in names:
                samples[name].append(result["metrics"][name]["value"])
    baseline = {}
    for workload, samples in medians.items():
        baseline[workload] = {}
        for name, values in samples.items():
            q1, median, q3 = statistics.quantiles(values, n=4)
            baseline[workload][name] = {"q1": q1, "median": median, "q3": q3,
                                        "runs": values}
    os.makedirs(os.path.dirname(BASELINE), exist_ok=True)
    with open(BASELINE, "w", encoding="utf-8") as fh:
        json.dump({"run_seconds": benchmark["run_seconds"], "workloads": baseline},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"perf_gate: recorded {BASELINE_RUNS} runs per workload in "
          f"{os.path.relpath(BASELINE, REPO)} (commit it)")


def main():
    benchmark = load_json(BENCHMARK)
    if not os.path.isfile(BASELINE):
        record(benchmark)
        return 0
    baseline = load_json(BASELINE)["workloads"]
    results = {w["name"]: run_workload(benchmark, w["name"])
               for w in benchmark["workloads"]}
    failures = compare(benchmark["end_to_end"], baseline, results)
    for failure in failures:
        print(f"perf_gate: FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"perf_gate: OK ({len(results)} workloads, no end-to-end metric "
          "worse than both its bound and the baseline IQR)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
