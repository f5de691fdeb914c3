#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py

Runs perfbench/run.py on every workload of BENCHMARK.json with seeds 1..10
for run_seconds each, and prints, for every end-to-end metric, the median,
the first and third quartiles (statistics.quantiles(values, n=4)) and the
interquartile distance as a share of the median, next to the metric's bound.
It then runs the traced mode twice on seed 1 and checks that every count
metric repeats exactly. Run from the repository root.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Which worker ran a farm task is a scheduler artifact, not program output.
SCHEDULE_DEPENDENT = {"exec.steal"}
SEEDS = range(1, 11)


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.exit("run failed: " + " ".join(command))
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("%s seed %d: %d failed operations" %
                 (workload, seed, result["failed"]))
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        values = {name: [] for name in bounds}
        for seed in SEEDS:
            result = run(workload, seed, seconds, 0)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("%s: %d runs, seeds %d..%d" % (
            workload, len(SEEDS), SEEDS[0], SEEDS[-1]))
        for name, series in values.items():
            q1, q2, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / q2
            flag = "" if spread < bounds[name] / 3 else "  <-- over bound/3"
            print("  %-14s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "spread %6.2f%%  bound %4.0f%%%s" % (
                      name, q2, q1, q3, 100 * spread, 100 * bounds[name],
                      flag))
            print("  %-14s values %s" % (
                "", " ".join("%.4g" % v for v in series)), flush=True)
        first = run(workload, SEEDS[0], seconds, 1)
        second = run(workload, SEEDS[0], seconds, 1)
        counts = [name for name, m in first["metrics"].items()
                  if m["unit"] == "count" and name not in SCHEDULE_DEPENDENT]
        moved = [name for name in counts
                 if first["metrics"][name] != second["metrics"][name]]
        overhead = [r["metrics"]["derived.trace_overhead"]["value"]
                    for r in (first, second)]
        print("  traced: %d count metrics, %s; trace overhead %.3f, %.3f" % (
            len(counts),
            "all repeat exactly" if not moved else "MOVED: " + ", ".join(moved),
            overhead[0], overhead[1]), flush=True)


if __name__ == "__main__":
    main()
