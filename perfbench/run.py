#!/usr/bin/env python3
"""Build the extraction server and the benchmark from this checkout, then
run the benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Build output goes to stderr; the
benchmark's last stdout line is its JSON result. Build artefacts go to
$CARGO_TARGET_DIR (default .bench_build), run files to .bench_work.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def build(target_dir):
    """Build both binaries offline; returns the server and benchmark paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "retroweb-service",
         "--bin", "retrozilla-serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "retrozilla-serve"), os.path.join(release, "perfbench")


def main():
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    server, bench = build(target_dir)
    cmd = [bench, "--server", server, "--work", os.path.join(ROOT, ".bench_work")] + sys.argv[1:]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
