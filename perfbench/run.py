#!/usr/bin/env python3
"""Build detserved and the benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload steady-mix --seed 1 --seconds 30 --trace 0

Builds go to $CARGO_TARGET_DIR (default `.bench_build`). All arguments are
passed to the benchmark binary; its last stdout line is the JSON result.
"""

import os
import subprocess
import sys


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = env["CARGO_TARGET_DIR"]
    builds = [
        ["cargo", "build", "--offline", "--release", "--quiet",
         "-p", "detlock-bench", "--bin", "detserved"],
        ["cargo", "build", "--offline", "--release", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"),
           "--detserved", os.path.join(release, "detserved")] + sys.argv[1:]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
