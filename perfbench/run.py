#!/usr/bin/env python3
"""Build docql-serve and the benchmark from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload title_lookup --seed 1 --seconds 10 --trace 0

Builds go to $CARGO_TARGET_DIR (default `.bench_build`); scratch files go
to `.perfbench/`. The last line of standard output is the result as one
JSON object. The exit code is non-zero when a build or the run fails.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "docql-serve", "--bin", "docql-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr, so the last stdout line stays the result.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--server-bin", os.path.join(release, "docql-serve"),
           "--work", os.path.join(root, ".perfbench")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
