#!/usr/bin/env python3
"""Builds the UNIT benchmark binary from this checkout's sources and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of zoo-cold, serve-stream, serve-blocking, serve-churn, codegen
(NOTES.md says what each measures). The library and the binary build with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on
first use.

An end-to-end run (--trace 0) starts unit_perfbench PROCESSES times, one after
another, each for S / PROCESSES seconds, and reports the median of each
metric: each process sets up once, so setup_s is the median of several
set-ups, and a process that met a slow spell of the shared host does not
decide the result. Process i draws its requests from seed N * PROCESSES + i,
so the run covers three different draws and the same N always gives the
same inputs. Only the first process runs the interpreter gate. A traced run
is one process for S seconds with seed N.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. Exits non-zero, printing no result, when the build or a run fails.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("zoo-cold", "serve-stream", "serve-blocking", "serve-churn",
             "codegen")
PROCESSES = 3
RUN_TIMEOUT_S = 170


def build(build_root):
    """Configures and builds unit_perfbench; a lock serializes concurrent runs."""
    os.makedirs(build_root, exist_ok=True)
    build_dir = os.path.join(build_root, "perfbench")
    with open(os.path.join(build_root, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                 build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", build_dir, "-j", "2"],
                       stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "unit_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    deadline = time.monotonic() + RUN_TIMEOUT_S
    processes = 1 if args.trace else PROCESSES
    results = []
    for index in range(processes):
        seed = args.seed if args.trace else args.seed * PROCESSES + index
        result = run_once(binary, args.workload, seed,
                          args.seconds / processes, args.trace, index == 0,
                          os.path.relpath(build_root, ROOT),
                          deadline - time.monotonic())
        if result is None:
            return 1
        results.append(result)
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


def run_once(binary, workload, seed, seconds, trace, gate, workdir, timeout):
    """Runs one unit_perfbench process; returns its result object, or None.

    Only a gated process runs the interpreter gate, which takes seconds: one
    gate per run keeps the run short. Every process checks every reply.
    """
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--gate", "1" if gate else "0", "--workdir", workdir]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             timeout=max(timeout, 1), text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return None
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: unit_perfbench exited with {run.returncode}",
              file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: unit_perfbench printed no result", file=sys.stderr)
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result", file=sys.stderr)
        return None
    print("\n".join(lines[:-1]), file=sys.stderr)
    return result


if __name__ == "__main__":
    sys.exit(main())
