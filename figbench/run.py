#!/usr/bin/env python3
"""Build the figure-grid benchmark and run it on one workload.

Usage, from the root of a checkout:

    python3 figbench/run.py --workload fig11_grid --seed 1 --seconds 15 --trace 0

Builds two variants of the benchmark package (figbench/) with cargo: the
default build, which takes every untraced measurement, and the `telemetry`
build, whose traced pass reads the program's spans and counters. Both land
under $CARGO_TARGET_DIR (default `.bench_build`). It then runs the default
build with the given arguments; that process prints the result as its last
stdout line and sets the exit code. See figbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BINARY = "hotgauge-benchmark"


def build(target_dir, features):
    """Builds one variant and returns the path of its binary."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST, "--target-dir", target_dir]
    if features:
        cmd += ["--features", features]
    # Cargo's own output goes to stderr; stdout carries only the result.
    done = subprocess.run(cmd, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"error: `{' '.join(cmd)}` failed with exit code {done.returncode}")
    return os.path.join(target_dir, "release", BINARY)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    plain = build(os.path.join(target, "plain"), None)
    traced = build(os.path.join(target, "traced"), "telemetry")
    cmd = [plain, *sys.argv[1:],
           "--traced-bin", traced,
           "--tmp", os.path.join(target, "figbench-tmp")]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
