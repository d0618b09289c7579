#!/usr/bin/env python3
"""Build the Tangram benchmark binary from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--check 1]

Workloads: city_steady, city_overload, fleet_provisioned, paper_fig12
(see BENCHMARK.json and perfbench/README.md).  The benchmark is built with
CMake into the directory named by CARGO_TARGET_DIR (default .bench_build),
relative to the repository root.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 runs the benchmark binary in PROCESSES separate processes, one
set-up each and an equal share of --seconds (at least two repetitions), and
pools their timings: setup_s is the median set-up, and patches_per_s the
completed patches over the sum, across windows of work, of each window's
fastest time in any repetition of any process. On a shared machine some
processes run a third slower for their whole life and interference only ever
adds time, so the fastest time per window is the steady figure. The
simulated metrics must agree exactly across the processes.

--trace 1 runs one process and also writes the sampled spans to
<build dir>/spans/<workload>-seed<n>.csv.  --check 1 additionally compares
each run against experiments::run_multistream / run_end_to_end.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("city_steady", "city_overload", "fleet_provisioned", "paper_fig12")
PROCESSES = 3  # untraced runs: benchmark processes pooled into one result
RUN_TIMEOUT_S = 170
# Host measurements; every other metric is simulated and must match exactly
# across processes.
HOST = ("setup_s", "patches_per_s", "peak_rss_mb")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(project, build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(project), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "tangram_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--check", default="0", choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    project = Path(__file__).resolve().parent
    root = project.parent
    if not (root / "src" / "core" / "system.h").is_file():
        fail(f"library sources not found under {root / 'src'}")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    try:
        build(project, build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")

    command = [str(build_dir / "tangram_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--trace", args.trace, "--check", args.check]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace == "1":
        spans = build_dir / "spans"
        spans.mkdir(exist_ok=True)
        command += ["--seconds", str(args.seconds), "--spans",
                    str(spans / f"{args.workload}-seed{args.seed}.csv")]
        sys.exit(run_bench(command, root, deadline, echo_result=True)[0])

    share = args.seconds / PROCESSES
    runs = [run_bench(command + ["--seconds", f"{share:.6f}"], root,
                       deadline)
            for _ in range(PROCESSES)]
    failed = [code for code, _, _ in runs if code != 0]
    if failed:
        sys.exit(failed[0])
    result = pool(runs)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


def run_bench(command, root, deadline, echo_result=False):
    """Run one benchmark process; return (exit code, raw timings, result)."""
    try:
        proc = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    # Everything but the benchmark's own result line is progress output.
    for line in lines if echo_result else lines[:-1]:
        print(line)
    sys.stdout.flush()
    if proc.returncode != 0 or echo_result:
        return proc.returncode, None, None
    try:
        return 0, json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark output did not end with its timing and result lines")


def pool(runs):
    """One result from several benchmark processes (see the module docstring)."""
    raws = [raw for _, raw, _ in runs]
    results = [result for _, _, result in runs]
    first = results[0]["metrics"]
    correct = all(result["correct"] for result in results)
    for result in results[1:]:
        for name in first.keys() - HOST:
            if result["metrics"][name]["value"] != first[name]["value"]:
                print(f"error: {name} differs between processes")
                correct = False
    reps = [windows for raw in raws for windows in raw["windows_ms"]]
    if len({len(windows) for windows in reps}) != 1:
        print("error: processes ran different numbers of windows")
        correct = False
    best_ms = sum(min(column) for column in zip(*reps))
    completed = results[0]["attempted"] - results[0]["failed"]
    per_rep = completed / len(raws[0]["windows_ms"])
    metrics = dict(first)
    metrics["setup_s"] = {
        "value": statistics.median(r["metrics"]["setup_s"]["value"]
                                   for r in results),
        "unit": "s"}
    metrics["patches_per_s"] = {"value": per_rep / (best_ms / 1e3),
                                "unit": "patches/s"}
    metrics["peak_rss_mb"] = {
        "value": statistics.median(r["metrics"]["peak_rss_mb"]["value"]
                                   for r in results),
        "unit": "MB"}
    return {"correct": correct,
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "metrics": metrics}


if __name__ == "__main__":
    main()
