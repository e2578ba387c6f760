#!/usr/bin/env python3
"""Builds the benchmark package and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload roster-replay|ga-generation|serve-mixed \
        [--seed N] [--seconds S] [--trace 0|1]

The package is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build` under the repository root); build output goes to stderr, so
the last line on stdout is always the benchmark's result line. Spans and
result digests are written to `<target dir>/perfbench-work/`. The exit
code is the benchmark's, or the build's when the build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """SHA-256 over the sources the benchmark builds: stamps a result with
    the code it measured even where there is no git history."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", ".cargo", "crates", os.path.basename(HERE)]
    for top in tops:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, names in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.join(dirpath, n) for n in sorted(names)]
        for f in files:
            if f.endswith((".rs", ".toml", ".lock")):
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() or "none"


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(target, "release", "perfbench")
    work = os.path.join(target, "perfbench-work")
    cmd = [exe] + sys.argv[1:] + [
        "--work-dir", work, "--commit", commit(), "--source-digest", source_digest()]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
