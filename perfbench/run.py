#!/usr/bin/env python3
"""The repo benchmark: builds perfbench_driver, runs one workload for a fixed
time, checks every output against its golden digest and prints the metrics.

    python3 perfbench/run.py --workload mno_census --seed 3 --seconds 38 --trace 0
    python3 perfbench/run.py --regen-golden [--workload NAME ...]

Run it from the repository root. Each iteration is a separate driver
process (fresh heap, its own peak RSS); iterations run back to back until
the next one would end past --seconds. Timings are medians over the
iterations.

--trace 0 prints the end-to-end metrics. --trace 1 interleaves untraced and
traced iterations: the traced ones carry phase timers, the engine's flight
recorder, a sampled timing sink and the driver's own spans, and give the
per-layer metrics plus a layer-accounting table; the untraced ones give the
baseline for obs.trace_overhead_pct.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
A run fails an iteration when the driver crashes, its digest differs from
golden.json (or, for a toolchain without golden digests, from the other
iterations and, for a sharded workload, from a threads=1 reference), or a
trace file does not validate.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD_DIR = os.path.join(REPO, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
GOLDEN = os.path.join(HERE, "golden.json")
VALIDATE_TRACE = os.path.join(REPO, "scripts", "validate_trace.py")

WORKLOADS = ("mno_census", "mno_fleet_t4", "platform_m2m")
MNO_WORKLOADS = ("mno_census", "mno_fleet_t4")
ITERATION_TIMEOUT_S = 100

END_TO_END = [
    ("setup_s", "s"),
    ("e2e_s", "s"),
    ("records_per_s", "records/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]

# (name, unit, which workloads have the layer; None = all)
PER_LAYER = [
    ("tracegen.world_s", "s", None),
    ("tracegen.fleets_s", "s", None),
    ("sim.run_s", "s", None),
    ("sim.self_s", "s", None),
    ("sim.wakes", "count", None),
    ("sim.ns_per_wake", "ns", None),
    ("sim.records.signaling", "count", None),
    ("sim.records.cdr", "count", None),
    ("sim.records.xdr", "count", None),
    ("sim.records.dwell", "count", None),
    ("sim.merge_s", "s", None),
    ("sim.merge_self_s", "s", None),
    ("sim.merge_share", "ratio", None),
    ("sim.cpu_util", "ratio", None),
    ("sim.shard_busy_frac_min", "ratio", None),
    ("sim.shard_busy_frac_max", "ratio", None),
    ("sim.merge_wait_skew_s", "s", None),
    ("sim.arena_dormant_bytes_per_agent", "B", None),
    ("sim.arena_bytes_per_agent", "B", None),
    ("sim.arena_hydrated_share", "ratio", None),
    ("sim.queue_depth_hwm", "count", None),
    ("core.catalog_sink_s", "s", MNO_WORKLOADS),
    ("core.catalog_sink_ns_per_record", "ns", MNO_WORKLOADS),
    ("core.catalog_accept_share", "ratio", MNO_WORKLOADS),
    ("core.catalog_rows", "count", MNO_WORKLOADS),
    ("core.catalog_finalize_s", "s", MNO_WORKLOADS),
    ("core.catalog_rss_mb", "MB", MNO_WORKLOADS),
    ("core.census_s", "s", MNO_WORKLOADS),
    ("core.label_shares_s", "s", MNO_WORKLOADS),
    ("core.platform_sink_s", "s", ("platform_m2m",)),
    ("core.platform_capture_share", "ratio", ("platform_m2m",)),
    ("core.platform_finalize_s", "s", ("platform_m2m",)),
    ("mem.rss_before_run_mb", "MB", None),
    ("mem.rss_after_run_mb", "MB", None),
    ("mem.rss_after_finalize_mb", "MB", None),
    ("obs.unexplained_s", "s", None),
    ("obs.trace_overhead_pct", "%", None),
]


def log(message):
    print(message, file=sys.stderr, flush=True)


def die(message):
    log(f"perfbench: {message}")
    sys.exit(2)


def build():
    """Configure once, then (re)build the driver; build output goes to stderr."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        die(f"library sources not found under {REPO}/src")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure + generator, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")


def iterate(workload, seed, run_id, trace_dir=None, threads=None):
    """One driver process; returns its result dict, or None when it failed."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--run-id", str(run_id)]
    if trace_dir is not None:
        cmd += ["--trace-dir", trace_dir]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} iteration {run_id} timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: {workload} iteration {run_id} exited {proc.returncode}")
        return None
    return json.loads(lines[-1])


def trace_valid(result):
    """Both trace files of a traced iteration pass scripts/validate_trace.py."""
    checks = [[result["spans_path"], "--require-span", "run"]]
    engine = [result["engine_trace_path"]]
    if result["shards"] > 1:
        engine += ["--min-shards", "2", "--require-span", "merge"]
    checks.append(engine)
    for args in checks:
        proc = subprocess.run([sys.executable, VALIDATE_TRACE] + args,
                              stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            return False
    return True


def load_golden():
    if not os.path.isfile(GOLDEN):
        return {}
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def derive_e2e(r):
    return {
        "setup_s": r["setup_s"],
        "e2e_s": r["e2e_s"],
        "records_per_s": r["records"] / r["e2e_s"],
        "cpu_s": r["cpu_s"],
        "peak_rss_mb": r["peak_rss_mb"],
    }


def derive_layers(r):
    """Per-layer metrics of one traced iteration (None = layer bypassed)."""
    sink = r["sink_s"]
    records = r["records"]
    self_s = r["run_s"] - sink
    sharded = r["shards"] > 1
    mno = "catalog_rows" in r
    arena_growth_mb = (r["arena_after_bytes"] - r["arena_before_bytes"]) / 2**20
    explained = (r["world_s"] + r["fleets_s"] + self_s + sink + r["finalize_s"]
                 + r.get("census_s", 0.0) + r.get("label_shares_s", 0.0))
    return {
        "tracegen.world_s": r["world_s"],
        "tracegen.fleets_s": r["fleets_s"],
        "sim.run_s": r["run_s"],
        "sim.self_s": self_s,
        "sim.wakes": r["wakes"],
        "sim.ns_per_wake": self_s * 1e9 / r["wakes"],
        "sim.records.signaling": r["records_signaling"],
        "sim.records.cdr": r["records_cdr"],
        "sim.records.xdr": r["records_xdr"],
        "sim.records.dwell": r["records_dwell"],
        "sim.merge_s": r["merge_s"],
        # Sharded runs deliver every record inside the serial merge replay.
        "sim.merge_self_s": r["merge_s"] - sink if sharded else 0.0,
        "sim.merge_share": r["merge_s"] / r["run_s"],
        "sim.cpu_util": r["run_cpu_s"] / (r["run_s"] * r["threads"]),
        "sim.shard_busy_frac_min": r["shard_busy_frac_min"],
        "sim.shard_busy_frac_max": r["shard_busy_frac_max"],
        "sim.merge_wait_skew_s": r["merge_wait_skew_s"],
        "sim.arena_dormant_bytes_per_agent": r["arena_before_bytes"] / r["agents"],
        "sim.arena_bytes_per_agent": r["arena_after_bytes"] / r["agents"],
        "sim.arena_hydrated_share": r["agents_hydrated"] / r["agents"],
        "sim.queue_depth_hwm": r["queue_depth_hwm"],
        "core.catalog_sink_s": sink if mno else None,
        "core.catalog_sink_ns_per_record": sink * 1e9 / records if mno else None,
        "core.catalog_accept_share": r["accepted"] / records if mno else None,
        "core.catalog_rows": r.get("catalog_rows"),
        "core.catalog_finalize_s": r["finalize_s"] if mno else None,
        # RSS growth across run + finalize, less what the agent arena grew.
        "core.catalog_rss_mb": (r["rss_after_finalize_mb"] - r["rss_before_run_mb"]
                                - arena_growth_mb) if mno else None,
        "core.census_s": r.get("census_s"),
        "core.label_shares_s": r.get("label_shares_s"),
        "core.platform_sink_s": None if mno else sink,
        "core.platform_capture_share": None if mno else r["captured"] / records,
        "core.platform_finalize_s": None if mno else r["finalize_s"],
        "mem.rss_before_run_mb": r["rss_before_run_mb"],
        "mem.rss_after_run_mb": r["rss_after_run_mb"],
        "mem.rss_after_finalize_mb": r["rss_after_finalize_mb"],
        "obs.unexplained_s": r["kept_setup_s"] + r["e2e_s"] - explained,
    }


def print_accounting(traced):
    """Layer times of each traced iteration against its wall time."""
    rows = ["tracegen.world_s", "tracegen.fleets_s", "sim.self_s",
            "core.catalog_sink_s", "core.platform_sink_s", "core.catalog_finalize_s",
            "core.platform_finalize_s", "core.census_s", "core.label_shares_s"]
    print("layer accounting (traced iterations; wall = setup + e2e):")
    for i, (r, m) in enumerate(traced):
        wall = r["kept_setup_s"] + r["e2e_s"]
        print(f"  iteration {i}: wall {wall:.4f} s")
        for name in rows:
            if m[name] is not None:
                print(f"    {name:<28} {m[name]:10.4f} s  {100 * m[name] / wall:6.2f}%")
        rest = m["obs.unexplained_s"]
        print(f"    {'unexplained remainder':<28} {rest:10.4f} s"
              f"  {100 * rest / wall:6.2f}%")


def check_digests(workload, seed, results, golden):
    """Mark each result ok/failed against golden digests (or, for a toolchain
    without them, against each other and a threads=1 reference)."""
    ok = [r is not None for r in results]
    done = [r for r in results if r is not None]
    if not done:
        return ok
    expected = golden.get(done[0]["toolchain"], {}).get(workload)
    if expected is None:
        log(f"perfbench: no golden digests for {done[0]['toolchain']}; "
            "checking iterations against each other")
        reference = done[0]["digest"]
        if done[0]["threads"] > 1:
            ref = iterate(workload, seed, len(results), threads=1)
            reference = ref["digest"] if ref else None
    for i, r in enumerate(results):
        if r is None:
            continue
        want = (expected.get(str(r["scenario_seed"])) if expected is not None
                else reference)
        if r["digest"] != want:
            log(f"perfbench: {workload} seed {r['scenario_seed']}: digest "
                f"{r['digest']} != expected {want}")
            ok[i] = False
    return ok


def run_workload(args):
    golden = load_golden()
    trace_dir = os.path.join(BUILD_DIR, "traces", args.workload)
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
    results, traced_flags, durations = [], [], []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(results) % 2 == 1
        t0 = time.monotonic()
        r = iterate(args.workload, args.seed, len(results),
                    trace_dir if traced else None)
        durations.append(time.monotonic() - t0)
        if r is not None and traced and not trace_valid(r):
            log(f"perfbench: iteration {len(results)} trace failed validation")
            r = None
        results.append(r)
        traced_flags.append(traced)
        elapsed = time.monotonic() - start
        enough = len(results) >= (2 if args.trace else 1)
        if enough and elapsed + statistics.median(durations) > args.seconds:
            break

    ok = check_digests(args.workload, args.seed, results, golden)
    attempted = len(results)
    failed = ok.count(False)
    # A wrong digest fails the run but its timings still count.
    plain = [r for r, t in zip(results, traced_flags) if r is not None and not t]
    traced = [r for r, t in zip(results, traced_flags) if r is not None and t]

    metrics = {}
    if plain:
        samples = [derive_e2e(r) for r in plain]
        first = plain[0]
        print(f"{args.workload}: {first['devices']} devices x {first['days']} days,"
              f" threads={first['threads']}, scenario seed {first['scenario_seed']},"
              f" {len(plain)} untraced iteration(s)")
        for name, unit in END_TO_END:
            q1, med, q3 = quartiles([s[name] for s in samples])
            print(f"  {name:<16} median {med:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g},"
                  f" n={len(samples)})")
            if not args.trace:
                metrics[name] = {"value": med, "unit": unit}
    print(f"  {'failed_share':<16} {failed / attempted:.6g} ratio"
          f"  ({failed} of {attempted} iterations)")

    if args.trace and traced:
        layers = [derive_layers(r) for r in traced]
        overhead = None
        if plain:
            base = statistics.median(r["e2e_s"] for r in plain)
            overhead = 100.0 * (statistics.median(r["e2e_s"] for r in traced) / base - 1)
        print(f"per-layer metrics (median of {len(traced)} traced iteration(s)):")
        for name, unit, scope in PER_LAYER:
            if name == "obs.trace_overhead_pct":
                value = overhead
            elif scope is not None and args.workload not in scope:
                value = None
            else:
                value = statistics.median(m[name] for m in layers)
            print(f"  {name:<36} " +
                  ("bypassed" if value is None else f"{value:.6g} {unit}"))
            # The result line carries every per-layer key; a bypassed layer
            # (or an overhead with no untraced baseline) reads 0.
            metrics[name] = {"value": 0.0 if value is None else value, "unit": unit}
        print_accounting(list(zip(traced, layers)))

    correct = failed == 0 and bool(plain) and (bool(traced) or not args.trace)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def regen_golden(workloads):
    """Recompute the threads=1 digests of every seed of the pool for this
    toolchain, name each one that moved, and rewrite golden.json."""
    golden = load_golden()
    moved = []
    for workload in workloads:
        first = iterate(workload, 0, 0, threads=1)
        if first is None:
            die(f"{workload}: reference run failed")
        entry = golden.setdefault(first["toolchain"], {}).setdefault(workload, {})
        for n in range(int(first["seed_pool"])):
            r = first if n == 0 else iterate(workload, n, n, threads=1)
            if r is None:
                die(f"{workload}: reference run for seed {n} failed")
            key = str(r["scenario_seed"])
            if entry.get(key) != r["digest"]:
                moved.append(workload)
                log(f"perfbench: golden {workload} seed {key}: "
                    f"{entry.get(key)} -> {r['digest']}")
            entry[key] = r["digest"]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("digests moved for: " + (", ".join(sorted(set(moved))) or "none"))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-golden", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")
    build()
    if args.regen_golden:
        return regen_golden(args.workload or WORKLOADS)
    if not args.workload or len(args.workload) != 1:
        die("give exactly one --workload")
    args.workload = args.workload[0]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
