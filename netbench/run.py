#!/usr/bin/env python3
"""Builds netbench from source and runs one workload.

    python3 netbench/run.py --workload <query_mix|dataplane_day|plan_scale>
                            --seed <n> --seconds <s> --trace <0|1>
    python3 netbench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR/netbench
(default .bench_build/netbench); traces and push digests to its out/
subdirectory. Build output goes to stderr. The last stdout line is the
result object; it is checked against BENCHMARK.json (every metric of the
run's mode present, with its unit, and nothing else) before it is printed.
Exits non-zero, without a result, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("netbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "netbench"))


def build(targets):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return out


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate(line, trace):
    """Returns an error string, or None when the result line is well formed."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number"
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return "metric names differ: missing %s, undeclared %s" % (missing,
                                                                   extra)
    for name, metric in got.items():
        if set(metric) != {"value", "unit"} or metric["unit"] != want[name]:
            return "metric %s is malformed or has the wrong unit" % name
        if not isinstance(metric["value"], (int, float)):
            return "metric %s is not a number" % name
    return None


def run_workload(args):
    out = build(["netbench"])
    os.makedirs(os.path.join(out, "out"), exist_ok=True)
    cmd = [os.path.join(out, "netbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", os.path.join(out, "out")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    error = validate(lines[-1], args.trace == 1) if done.stdout else "no output"
    if error is not None:
        sys.stderr.write(done.stdout)
        fail("%s (exit code %d)" % (error, done.returncode))
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


def self_test():
    out = build(["netbench", "netbench_selftest"])
    code = subprocess.run([os.path.join(out, "netbench_selftest")],
                          check=False).returncode
    env = dict(os.environ, NETBENCH_BIN=os.path.join(out, "netbench"))
    code |= subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s",
         os.path.join(HERE, "tests"), "-p", "test_*.py"],
        env=env, check=False).returncode
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["query_mix", "dataplane_day", "plan_scale"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
