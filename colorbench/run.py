#!/usr/bin/env python3
"""Build colorbench from source and run one workload.

Usage, from the repository root:

    python3 colorbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (colorbench/Cargo.toml) that
depends on the library crates under crates/ by path. This script builds it
in release mode (into $CARGO_TARGET_DIR, or colorbench/target), stamps the
run with the rustc version, the git commit when there is one and a digest
of the sources, and runs the binary from the repository root. The binary's
last stdout line is the result object; its exit code is passed on. Without
the library sources the build fails and the script exits non-zero without
printing a result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures for at most 60 s plus set-up; anything far beyond that hangs.
RUN_TIMEOUT_S = 170
SKIP_DIRS = {"target", ".git"}


def output_of(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def commit():
    """HEAD of the repository at ROOT, or 'none' outside a git checkout."""
    top = output_of(["git", "rev-parse", "--show-toplevel"])
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return "none"
    return output_of(["git", "rev-parse", "HEAD"]) or "none"


def source_digest():
    """SHA-256 over the library and benchmark sources and manifests."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in (os.path.join(ROOT, "crates"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def main():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.join(os.getcwd(), target)
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("colorbench: build failed", file=sys.stderr)
        return build.returncode or 1
    stamp = [
        "--commit", commit(),
        "--rustc", output_of(["rustc", "-V"]) or "unknown",
        "--source-digest", source_digest(),
    ]
    exe = os.path.join(target, "release", "colorbench")
    try:
        run = subprocess.run([exe, *sys.argv[1:], *stamp], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"colorbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
