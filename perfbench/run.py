#!/usr/bin/env python3
"""Build and run the repository benchmark.

usage: python3 perfbench/run.py --workload scale|serve|suites --seed N
                                --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
moldsched library and the perfbench executable (CMake, RelWithDebInfo) under
$CARGO_TARGET_DIR, or .bench_build when it is unset; later runs only
rebuild what changed. Build output goes to stderr. The executable's
output is passed through, except its last line: the result object is
printed instead with exactly the metrics BENCHMARK.json lists for the
run (end_to_end untraced, per_layer traced), and a run that misses one,
or reports it in another unit, fails. The exit code is otherwise the
executable's: nonzero when a correctness gate failed or the build did.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(target_dir):
    build_dir = os.path.join(target_dir, "perfbench")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return None
    return os.path.join(build_dir, "perfbench")


def manifest_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json lists for the run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    return [(m["name"], m["unit"])
            for m in manifest["per_layer" if trace else "end_to_end"]]


def select(result, wanted):
    """The result with only the wanted metrics, or None if one is missing."""
    metrics = {}
    for name, unit in wanted:
        m = result["metrics"].get(name)
        if m is None or m.get("unit") != unit:
            print("perfbench: the run reported no %s in %s" % (name, unit),
                  file=sys.stderr)
            return None
        metrics[name] = {"value": m["value"], "unit": unit}
    return dict(result, metrics=metrics)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["scale", "serve", "suites"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    wanted = manifest_metrics(args.trace)
    target_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(target_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(target_dir, "results")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if not ok:
        print("perfbench: the run printed no result line", file=sys.stderr)
        return 1
    result = select(result, wanted)
    if result is None:
        return 1
    print(json.dumps(result), flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
