#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload grid10k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

`--workload all` runs every workload of BENCHMARK.json in turn.

The benchmark binary (perfbench/main.cpp) is built with CMake into the directory
named by CARGO_TARGET_DIR, or `.bench_build` when that is unset, together
with the ezflow library of the enclosing source tree. Build output goes
to standard error; the benchmark's report goes to standard output, whose
last line is the JSON result. Exits non-zero without a result when the
source tree is missing or the build fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure (once) and build the benchmark; returns the binary path."""
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def git_commit():
    """HEAD of the checkout, when it is a git work tree (never searches upward)."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def selftest(binary, build_dir):
    """The binary's own checks, plus BENCHMARK.json against its metric names."""
    status = subprocess.run([binary, "--selftest", "--goldens", os.path.join(ROOT, "goldens")],
                            cwd=ROOT).returncode
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = 0
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run([binary, "--workload", "grid10k", "--seed", "1", "--seconds", "1",
                              "--trace", str(trace), "--report-dir",
                              os.path.join(build_dir, "selftest")],
                             cwd=ROOT, capture_output=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        declared = {m["name"]: m["unit"] for m in spec[section]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        ok = declared == printed and set(result) == {"correct", "attempted", "failed", "metrics"}
        print("  %s trace %d prints exactly the %s metrics of BENCHMARK.json"
              % ("ok  " if ok else "FAIL", trace, section))
        problems += not ok
    return 1 if status or problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"), "goldens"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print("perfbench: no ezflow source tree here (missing %s)" % needed, file=sys.stderr)
            return 2

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2

    if args.selftest:
        return selftest(binary, build_dir)
    workloads = [args.workload]
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    status = 0
    for workload in workloads:
        command = [binary, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--goldens", os.path.join(ROOT, "goldens"),
                   "--report-dir", os.path.join(build_dir, "reports"),
                   "--commit", git_commit()]
        status = max(status, subprocess.run(command, cwd=ROOT).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
