#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 tvbench/run.py --workload kb_cold --seed 1 --seconds 20 --trace 0

The benchmark is a Cargo package of its own (tvbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode,
offline, into $CARGO_TARGET_DIR (default: .bench_build at the repository
root); the build's output goes to stderr. The built binary then replaces
this process, so its stdout (ending in the one-line JSON result) and its
exit code are the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(os.path.join(ROOT, target))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"tvbench: build failed (exit {build.returncode})", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "tvbench")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])
    return 1  # not reached: execv replaces this process


if __name__ == "__main__":
    sys.exit(main())
