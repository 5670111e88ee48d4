#!/usr/bin/env python3
"""Builds the GQS stack benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (and the library sources in
src/) into .bench_build/ (or $CARGO_TARGET_DIR, taken relative to the root);
later calls only rebuild what changed. Build output goes to stderr.

A workload run prints the benchmark's full report (one "name value unit"
line per metric, null values with their reason), then, as its last line,
one JSON object holding the metrics BENCHMARK.json declares for the mode:
the end_to_end metrics with --trace 0, the per_layer metrics with --trace 1.
It exits non-zero if the build fails, an output check fails, or a declared
metric is missing or undefined.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Upper bound on one run of the binary, which itself stops starting passes
# after 120 s.
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", target, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, target)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def run_workload(args):
    declared = declared_metrics(args.trace)
    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        sys.exit("perfbench: run failed (exit %d)" % proc.returncode)
    full = json.loads(lines[-1])
    metrics = {}
    for m in declared:
        got = full["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            sys.exit("perfbench: %s is not defined on %s: %s" % (
                m["name"], args.workload,
                (got or {}).get("reason", "not reported")))
        if got["unit"] != m["unit"]:
            sys.exit("perfbench: %s is reported in %s, declared in %s" % (
                m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": full["correct"], "attempted": full["attempted"],
                      "failed": full["failed"], "metrics": metrics}))
    return 0 if full["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        return subprocess.run([build("perfbench_selftest")], cwd=ROOT).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
