#!/usr/bin/env python3
"""Builds the repository benchmark from this checkout's sources and runs it.

Usage (from the checkout root):

    python3 perfbench/run.py --workload dt_fleet --seed 1 --seconds 20 --trace 0

The build (CMake, Release) lives in .bench_build/ at the checkout root; the
first run configures and compiles it, later runs only re-check it. The
driver binary's output is passed through; its last line is the result
object, whose metric names are checked against BENCHMARK.json before it is
printed. Exits non-zero, without printing a result, when the build, the
statistics self-test or the run fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(BUILD_DIR, "perfbench_out")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def usable_cores():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def source_digest():
    """Content digest of the sources the benchmark builds (the checkout is
    not a git repository, so this stands in for the commit id)."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), BENCH_DIR, os.path.join(ROOT, "CMakeLists.txt")]
    paths = []
    for root in roots:
        if os.path.isfile(root):
            paths.append(root)
            continue
        for directory, _, files in os.walk(root):
            paths.extend(os.path.join(directory, name) for name in files)
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_checked(command, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        completed = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                                   timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: timed out: " + " ".join(command), file=sys.stderr)
        return False
    return completed.returncode == 0


def build():
    jobs = str(usable_cores())
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_checked(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    if not run_checked(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                        "perfbench", "perfbench_stats_test"], BUILD_TIMEOUT_S):
        return False
    return run_checked([os.path.join(BUILD_DIR, "perfbench_stats_test")], 60)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = {w["name"] for w in spec["workloads"]}
    if args.workload not in workloads:
        print("perfbench: unknown workload " + args.workload, file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in wanted}
    command = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", OUT_DIR, "--commit", source_digest()]
    try:
        completed = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                                   timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = completed.stdout.rstrip("\n").split("\n")
    if completed.returncode != 0 or not lines:
        sys.stdout.write(completed.stdout)
        print("perfbench: run failed with code %d" % completed.returncode, file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    reported = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if reported != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("perfbench: reported metrics do not match BENCHMARK.json: missing %s, extra %s"
              % (sorted(set(expected) - set(reported)), sorted(set(reported) - set(expected))),
              file=sys.stderr)
        return 1
    sys.stdout.write(completed.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
