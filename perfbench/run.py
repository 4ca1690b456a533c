#!/usr/bin/env python3
"""Build and run the klinq readout benchmark.

Usage (from the root of a klinq checkout):

    python3 perfbench/run.py --workload wire-small --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

The harness (readout_bench.cpp) is built from source into .bench_build/ on
every invocation (a no-op when up to date); all build output goes to stderr
so the last line of stdout is the harness's JSON result. The exit code is the
harness's: non-zero on any oracle mismatch or failed stats validation.

--self-test runs every workload at tiny size for a few seconds, traced and
untraced, checks that every metric BENCHMARK.json names is printed with its
unit, and checks that the oracle reports a deliberately flipped register.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "readout_bench")
WORKLOADS = ["wire-small", "feedback-under-load"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "include", "klinq",
                                       "serve", "readout_server.hpp")):
        fail("run from the root of a klinq checkout (no src/ tree in %s)" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "readout_bench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def run_harness(args, capture=False):
    cmd = [BINARY] + args
    if not capture:
        return subprocess.run(cmd, timeout=175).returncode, None
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=175)
    return done.returncode, done.stdout


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = run_harness(
                ["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--tiny"], capture=True)
            label = "%s --trace %s" % (workload, trace)
            lines = out.strip().splitlines() if out else []
            if code != 0 or not lines:
                problems.append("%s: exit %d" % (label, code))
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: not correct" % label)
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append("%s: missing %s [%s]"
                                    % (label, metric["name"], metric["unit"]))
            print("self-test %-32s ok=%s metrics=%d"
                  % (label, result["correct"], len(result["metrics"])))
    code, _ = run_harness(["--oracle-self-test"])
    if code != 0:
        problems.append("oracle self-test: exit %d" % code)
    for problem in problems:
        print("self-test FAIL: " + problem)
    print("self-test " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    build()
    if args.self_test:
        return self_test()
    if args.workload is None:
        fail("--workload is required")
    harness_args = ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        harness_args += ["--chrome-trace", os.path.join(
            ROOT, ".bench_build", "trace-%s.json" % args.workload)]
    code, _ = run_harness(harness_args)
    return code


if __name__ == "__main__":
    sys.exit(main())
