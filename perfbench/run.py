#!/usr/bin/env python3
"""Builds the MOIST tier benchmark and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is its own Cargo package in
this directory; it builds into $CARGO_TARGET_DIR (default `.bench_build`)
and keeps its WAL and span files under `.bench_build/perfbench`. The last
line of standard output is the run's JSON result; build output goes to
standard error. The exit code is the benchmark's own: non-zero when the
build fails or a correctness check does.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "moist_perfbench")
    work = os.path.join(ROOT, ".bench_build", "perfbench")
    return subprocess.run([exe, *sys.argv[1:], "--work-dir", work]).returncode


if __name__ == "__main__":
    sys.exit(main())
