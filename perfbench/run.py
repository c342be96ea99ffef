#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds a Release tree in .bench_build/perfbench
(the libraries under src/ plus the binary); later calls only rebuild what
changed. Build output goes to stderr.

An untraced run (--trace 0) splits its seconds over SHARDS binary processes
run one after another, pools their raw samples (one per timed operation or
set-up build) and reports each end-to-end metric as the median of the pooled
samples. On a shared machine a process's speed depends on where and when it
runs, so pooling several processes steadies the medians. A traced run
(--trace 1) is one process.

ppo_dataplane runs its forward passes on the shared thread pool, which has
as many workers as the machine has CPUs, so its speed depended on how many
of the host's shared CPUs were free at once. Each of its processes is
pinned to one CPU, the next allowed CPU for each process in turn: the pool
workers share that CPU, and the pooled shards still average over the CPUs,
whose speeds drift apart on a shared host. The other workloads run on one
thread and stay unpinned, so the scheduler can move them off a slow CPU.

The last line of stdout is the JSON result. Metric names and units come
from BENCHMARK.json; a binary metric it does not list is an error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
SHARDS = 5
PINNED_WORKLOADS = {"ppo_dataplane"}
RUN_BUDGET_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def cpu_times():
    """Aggregate CPU tick counters from /proc/stat (None where unavailable)."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def pinned_to(args, index):
    """A pre-exec hook pinning a pinned workload's child to the index-th allowed CPU."""
    if args.workload not in PINNED_WORKLOADS or not hasattr(os, "sched_setaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[index % len(cpus)]
    return lambda: os.sched_setaffinity(0, {cpu})


def run_binary(args, seconds, deadline, index=0):
    """Runs the binary once; returns its parsed result (report lines are echoed)."""
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", args.trace]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail(f"run exceeded {RUN_BUDGET_S} s")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, timeout=timeout, text=True,
                             preexec_fn=pinned_to(args, index))
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_BUDGET_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"perfbench exited with status {run.returncode} and no result")
    if run.returncode not in (0, 1):  # 1: printed, but an output check failed.
        fail(f"perfbench exited with status {run.returncode}")
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    spec = benchmark_spec()
    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    ticks_before = cpu_times()
    if args.trace == "1":
        shards = [run_binary(args, args.seconds, deadline)]
        known = {m["name"] for m in spec["per_layer"]}
        unknown = sorted(set(shards[0]["metrics"]) - known)
        if unknown:
            fail(f"metrics {unknown} are not in BENCHMARK.json")
        # A layer the workload never enters reads 0.
        metrics = {m["name"]: {"value": shards[0]["metrics"].get(m["name"], 0.0),
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        shards = [run_binary(args, args.seconds / SHARDS, deadline, index)
                  for index in range(SHARDS)]
        metrics = {}
        for metric in spec["end_to_end"]:
            pooled = [v for shard in shards for v in shard["samples"].get(metric["name"], [])]
            if not pooled:
                fail(f"no samples of {metric['name']}")
            median = statistics.median(pooled)
            metrics[metric["name"]] = {"value": median, "unit": metric["unit"]}
            print(f"{metric['name']}: median {median:.6g} {metric['unit']} "
                  f"over {len(pooled)} samples from {SHARDS} processes")
    ticks_after = cpu_times()
    if ticks_before and ticks_after and len(ticks_after) > 7:
        # Field 8 is steal: time the hypervisor ran something else while this
        # machine's CPUs wanted to run; context for run-to-run spread.
        delta = [a - b for a, b in zip(ticks_after, ticks_before)]
        print(f"host steal during the run: {100.0 * delta[7] / max(1, sum(delta)):.1f}% "
              "of CPU time")
    result = {"correct": all(shard["correct"] for shard in shards),
              "attempted": sum(shard["attempted"] for shard in shards),
              "failed": sum(shard["failed"] for shard in shards),
              "metrics": metrics}
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
