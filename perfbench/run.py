#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a Cargo package of its own
(perfbench/Cargo.toml) that depends on the repository's crates by path; it
is built in release mode into $CARGO_TARGET_DIR (default
perfbench/target). The run is pinned to one CPU: the worker pool then has
one worker and every frontier level runs serially, which keeps the
pool's sharded path out of the measurement (see README.md). The
benchmark's last stdout line is its JSON result; the exit code is the
benchmark's, or the build's when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(os.path.abspath(target), "release", "cxrpq-perfbench")
    cpu = max(os.sched_getaffinity(0))
    run = subprocess.run(
        [binary] + sys.argv[1:],
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
