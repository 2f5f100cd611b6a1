#!/usr/bin/env python3
"""Builds and runs the hiss host-time benchmark.

Run from the root of a checkout:

    python3 hostbench/run.py --workload fig3_grid --seed 1 --seconds 20 --trace 0

Builds `hostbench` (a cargo workspace of its own, with path dependencies
on the simulator crates) into $CARGO_TARGET_DIR, or `.bench_build` when
that is unset, then runs it with the same arguments. The last line of
standard output is the JSON result; build output goes to standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    needed = ["Cargo.toml", "crates", "scenarios", "hostbench/Cargo.toml", "hostbench/digests.txt"]
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print("hostbench: not a hiss checkout, missing: " + ", ".join(missing), file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=900,
    )
    if build.returncode != 0:
        print("hostbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(os.path.abspath(target), "release", "hostbench")
    sys.stdout.flush()
    return subprocess.run([exe, "--root", ROOT] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
