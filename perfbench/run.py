#!/usr/bin/env python3
"""Builds and runs the glitchlock benchmark from the root of a checkout.

    python3 perfbench/run.py --workload paper_flow --seed 1 --seconds 10 --trace 0

Builds `perfbench` (its own cargo workspace) and the `glk` CLI in release
mode into $CARGO_TARGET_DIR (default `.bench_build`), then runs the
benchmark binary, passing every argument through plus provenance: the
source revision, rustc version and build profile. The last line of
stdout is the result JSON. Exits nonzero, printing no result, when the
build or the run fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys

PROFILE = "release"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_rev(root):
    """The git revision when the checkout is a repository, else a digest
    of the sources the benchmark builds from."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            rev = subprocess.run(
                ["git", "-C", root, "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            dirty = subprocess.run(
                ["git", "-C", root, "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            return rev + ("-dirty" if dirty else "")
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, dirs, fs in os.walk(path)
            for f in fs
            if f.endswith((".rs", ".toml", ".lock", ".py"))
        )
        for f in files:
            digest.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:16]


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "Cargo.toml")) or not os.path.isdir(
        os.path.join(root, "crates")
    ):
        fail("run from the root of a glitchlock checkout (no Cargo.toml or crates/ here)")
    if shutil.which("cargo") is None:
        fail("cargo is not on PATH")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in (
        ("perfbench/Cargo.toml", []),
        ("Cargo.toml", ["--bin", "glk"]),
    ):
        build = subprocess.run(
            ["cargo", "build", "--offline", "--quiet", f"--{PROFILE}",
             "--manifest-path", manifest] + extra,
            env=env, stdout=sys.stderr,
        )
        if build.returncode != 0:
            fail(f"building {manifest} failed")
    exe = os.path.join(target, PROFILE, "glitchlock-perfbench")
    glk = os.path.join(target, PROFILE, "glk")
    rustc = subprocess.run(
        ["rustc", "--version"], capture_output=True, text=True
    ).stdout.strip() or "unknown"
    work = os.path.join(target, "perfbench-work", str(os.getpid()))
    args = sys.argv[1:] + [
        "--glk", glk,
        "--work-dir", work,
        "--rev", source_rev(root),
        "--rustc", rustc,
        "--profile", PROFILE,
    ]
    try:
        code = subprocess.run([exe] + args).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
