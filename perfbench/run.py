#!/usr/bin/env python3
"""Builds perfbench and the sisyn CLI from source, then runs one benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload structural_batch --seed 1 --seconds 30 --trace 0

Workloads: structural_batch, state_space_batch, serve_session. The last
line of standard output is the result object (see perfbench/README.md).
Build products go to $CARGO_TARGET_DIR (default: .bench_build), and the
span files of traced runs to its perfbench/ subdirectory.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "sisyn", "--bin", "sisyn"],
    ]
    for cmd in builds:
        # Cargo reports on stderr; stdout stays for the result line.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--sisyn", os.path.join(release, "sisyn"),
           "--out-dir", os.path.join(target, "perfbench")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
