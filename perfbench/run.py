#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every argument is passed to the `perfbench` binary (see perfbench/README.md).
The binary is built in release mode, offline, into $CARGO_TARGET_DIR
(default `.bench_build` at the repository root); cargo's own output goes to
stderr so the last stdout line stays the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    # The benchmark compiles the repository's crates; without them there is
    # nothing to measure.
    for crate in ("ion-circuit", "eml-qccd", "muss-ti", "baselines", "verify", "experiments"):
        if not os.path.isfile(os.path.join(ROOT, "crates", crate, "Cargo.toml")):
            print(f"perfbench: crates/{crate} not found under {ROOT}", file=sys.stderr)
            return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
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
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode

    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary, *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
