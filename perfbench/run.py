#!/usr/bin/env python3
"""Runs one benchmark run of anosy-served, building everything from source first.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `anosy-served` binary (the repository workspace)
and the `perfbench` load generator (this directory's own Cargo package) in release mode into
`$CARGO_TARGET_DIR` (default: the workspace's `target/`), then runs the load generator
against the server. Build output goes to standard error; the last line of standard output
is the run's JSON result. Exits non-zero, printing no result, when a build fails or any
answer is wrong.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(env):
    """Builds the server and the load generator; returns their paths, or None on failure."""
    target = Path(env["CARGO_TARGET_DIR"])
    steps = [
        ["cargo", "build", "--release", "--quiet", "-p", "anosy-serve", "--bin", "anosy-served"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")],
    ]
    for command in steps:
        if subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            return None
    return target / "release" / "anosy-served", target / "release" / "perfbench"


def main(argv):
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / "target").resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    built = build(env)
    if built is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    server, bench = built
    return subprocess.run([str(bench), *argv, "--server", str(server)]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
