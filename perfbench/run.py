#!/usr/bin/env python3
"""Build and run the simulator host-speed benchmark.

    python3 perfbench/run.py --workload spec-mem --seed 1 --seconds 20 --trace 0

Run from the repository root.  Builds perfbench/main.exe with dune into
.bench_build, runs it, checks that the result line names exactly the
metrics BENCHMARK.json declares for this mode, and prints the run's
stdout, whose last line is the JSON result.  Exits non-zero, without a
result line, if the build, the run or that check fails.
"""

import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    args = sys.argv[1:]
    try:
        trace = args[args.index("--trace") + 1]
    except (ValueError, IndexError):
        fail("missing --trace")
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    declared = {m["name"]: m["unit"] for m in declared}

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--cache", "disabled",
         "./perfbench/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")

    try:
        run = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("run failed with exit code %d" % run.returncode)
    result = json.loads(lines[-1])
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(printed.items()) ^ set(declared.items())))
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
