#!/usr/bin/env python3
"""EpiScale layered wall-clock benchmark: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the libraries and the benchmark under
.bench_build/ at the default optimised build type (the first run compiles,
later runs only check that the build is current), clears every EPI_*
variable so the program runs with its production defaults, runs the
workload in its own process and prints its output. The last line
is one JSON object: {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are BENCHMARK.json's end_to_end set, with --trace 1
its per_layer set. The metric list lives only in BENCHMARK.json: the binary
reports what it measured plus the layers the workload does not run, and
this script orders the metrics, fills in the ones not run as 0 and checks
the units.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    return args


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("no BENCHMARK.json at " + ROOT)
    with open(path) as f:
        return json.load(f)


def build():
    """Configures (a no-op when current), then brings the binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no EpiScale source tree (src/) next to perfbench/; "
             "run from the root of a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"]]
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build step failed: " + " ".join(step))
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        cache = f.read()
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    if build_type is None or build_type.group(1) not in (
            "RelWithDebInfo", "Release"):
        fail("the benchmark build is not optimised; remove .bench_build/")
    if "-fsanitize" in cache:
        fail("the benchmark build uses sanitizers; remove .bench_build/")


def not_run_reason(name, not_run):
    """The binary's reason for leaving out `name`, given per layer or metric."""
    for layer, reason in not_run.items():
        if name == layer or name.startswith(layer + "."):
            return reason
    return None


def complete_result(line, spec, trace):
    """Builds the result line from the binary's: BENCHMARK.json's metrics in
    its order, each measured one with the spec's unit, each one the workload
    does not run as 0 with the binary's reason. Returns the n/a notes and
    the result."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics",
                          "not_run"]:
        fail("binary result keys are " + ", ".join(sorted(result)))
    if result["attempted"] < 1:
        fail("no operation attempted")
    measured = result.pop("metrics")
    not_run = result.pop("not_run")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    extra = sorted(set(measured) - {m["name"] for m in wanted})
    if extra:
        fail("metrics not in BENCHMARK.json: " + ", ".join(extra))
    notes, metrics = [], {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                fail("%s is in %s, BENCHMARK.json says %s" % (
                    name, measured[name]["unit"], unit))
            metrics[name] = measured[name]
            continue
        reason = not_run_reason(name, not_run)
        if reason is None:
            fail("metric %s was neither measured nor declared not run" % name)
        notes.append("metric %-32s n/a: %s (%s)" % (name, reason, unit))
        metrics[name] = {"value": 0, "unit": unit}
    result["metrics"] = metrics
    return notes, result


def main():
    args = parse_args()
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload '%s'" % args.workload)
    build()

    env = {k: v for k, v in os.environ.items() if not k.startswith("EPI_")}
    cleared = sorted(set(os.environ) - set(env))
    if cleared:
        print("# cleared " + " ".join(cleared))
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    notes, result = complete_result(lines[-1], spec, args.trace == "1")
    print("\n".join(lines[:-1] + notes))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
