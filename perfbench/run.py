#!/usr/bin/env python3
"""Build pic-serve and the perfbench binary from source, then run one
benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds go to $CARGO_TARGET_DIR (default: .bench_build in the checkout).
The binary's stdout passes through unchanged; its last line is the
result JSON. Exits non-zero, without a result, when the checkout does
not hold the repository's sources.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    manifest = os.path.join(here, "Cargo.toml")
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates", "serve"))):
        sys.stderr.write("perfbench: run from the root of a checkout holding crates/serve\n")
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "pic-serve", "--bin", "pic-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
    ]
    for cmd in builds:
        # Build output goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--serve-bin", os.path.join(release, "pic-serve"),
           "--log-dir", os.path.join(target, "perfbench-logs")]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
