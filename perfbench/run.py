#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds the `hfta` binary and the benchmark crate in release mode
(into `$CARGO_TARGET_DIR`, default `.bench_build`), then runs one
workload and passes its output through. The last line of standard
output is the result object. Build output goes to standard error.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_rev():
    """The git revision, or a hash of the sources outside a git tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:12]


def build(target, args):
    cmd = ["cargo", "build", "--release", "--offline", "-q"] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def main():
    for needed in ["Cargo.toml", "crates", "src"]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"`{needed}` is missing: run from the root of a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build(target, ["-p", "hfta", "--bin", "hfta"])
    build(target, ["--manifest-path", os.path.join(HERE, "Cargo.toml")])
    exe = os.path.join(target, "release")
    cmd = [
        os.path.join(exe, "hfta-perfbench"),
        "--hfta", os.path.join(exe, "hfta"),
        "--out", os.path.join("perfbench", "out"),
        "--rev", source_rev(),
    ] + sys.argv[1:]
    # The benchmark's own sockets and scratch files live under
    # perfbench/out, relative to the checkout root.
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
