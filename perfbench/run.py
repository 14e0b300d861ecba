#!/usr/bin/env python3
"""Host-cost benchmark for caf2.

Builds perfbench/ (which compiles the library from ../src) and runs one
workload for a fixed number of host seconds:

    python3 perfbench/run.py --workload uts|ra|sync|coll --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S   # every workload

Workloads: uts (Fig. 17 UTS, 4096 images on 2 shards), ra (Fig. 13
RandomAccess, 64 images), sync (Fig. 12 producer-consumer, 1024 images, obs
and blame on), coll (kAuto collectives, 64 images). See perfbench/README.md.

Every repetition's outputs are checked; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones (wall_s, setup_s, units_per_s,
peak_rss_mb); with --trace 1 they are the per-layer ones from the traced
run. The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.normpath(os.path.join(HERE, "..", "src"))
WORKLOADS = ("uts", "ra", "sync", "coll")
RUN_TIMEOUT_S = 170  # a run must end within 180 s; leave room to report
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark program; return its path."""
    if not os.path.isfile(os.path.join(SOURCE, "CMakeLists.txt")):
        log(f"error: caf2 sources not found at {SOURCE}")
        return None
    build_dir = os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("error: cmake configure failed")
            return None
    jobs = str(min(os.cpu_count() or 1, 4))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        log("error: build failed")
        return None
    return os.path.join(build_dir, "caf2_perfbench")


def run_program(binary, workload, seed, seconds, trace):
    """Run one workload; return (reps, result-or-None, exit code)."""
    trace_out = os.path.join(os.path.dirname(binary),
                             f"trace-{workload}.json")
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--trace-out", trace_out]
    reps, result = [], None
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if line.startswith("@rep "):
                    reps.append(json.loads(line[5:]))
                elif line.startswith("@result "):
                    result = json.loads(line[8:])
                else:
                    sys.stdout.write(line)
        finally:
            watchdog.cancel()
            code = proc.wait()
    return reps, result, code


def tail_percentile(values):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(values)
    for q in PERCENTILES:
        if n * (1.0 - q / 100.0) >= 10.0:
            return q, statistics.quantiles(values, n=1000,
                                           method="inclusive")[int(q * 10) - 1]
    return None, None


def summarize(workload, seed, seconds, trace, binary):
    reps, result, code = run_program(binary, workload, seed, seconds, trace)
    attempted = len(reps)
    failed = sum(1 for r in reps if not r["ok"])
    for r in reps:
        if not r["ok"]:
            log(f"{workload}: repetition {r['index']} failed: {r['error']}")
    if code != 0 or result is None:
        log(f"{workload}: benchmark program exited with code {code}")
        attempted += 1  # the repetition that was running when it died
        failed += 1
    correct = failed == 0 and result is not None and result["probes_ok"]

    measured = [r for r in reps if r["kind"] == "measure" and r["ok"]]
    if not measured or result is None:
        return None
    # Host times scaled to the reference host speed (see README.md).
    walls = [r["norm_wall_s"] for r in measured]
    setups = [s for r in measured for s in r["norm_setups"]]
    rates = [result["units_per_rep"] / r["norm_body_s"] for r in measured]
    raw_wall = statistics.median(r["wall_s"] for r in measured)

    print(f"== {workload}  seed {seed}  ({len(measured)} measured "
          f"repetitions, {result['units_per_rep']:.0f} {result['unit']}s "
          f"each)")
    q, tail = tail_percentile(walls)
    tail_text = (f"p{q:g} {tail:.4f} s" if q is not None else
                 f"no percentile has 10 samples beyond it; max "
                 f"{max(walls):.4f} s")
    print(f"  wall_s       {statistics.median(walls):.4f} s   median of "
          f"n={len(walls)}; {tail_text}; unscaled median {raw_wall:.4f} s")
    print(f"  setup_s      {statistics.median(setups):.6f} s   median of "
          f"n={len(setups)} run_stats() calls")
    print(f"  units_per_s  {statistics.median(rates):.1f} 1/s "
          f"({result['unit']}s per body second)")
    print(f"  peak_rss_mb  {result['peak_rss_mb']:.1f} MB")
    print(f"  fail_ratio   {failed / attempted:.3f} ratio   "
          f"({failed} of {attempted} repetitions)")

    if trace:
        metrics = result["layers"]
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "units_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        return 1
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        out = summarize(workload, args.seed, args.seconds, args.trace, binary)
        if out is None:
            log(f"{workload}: no repetition completed; no result")
            return 1
        results[workload] = out
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
