#!/usr/bin/env python3
"""Builds and runs the dengraph repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload tw|dense|durable --seed N \
        --seconds S --trace 0|1

Builds the `perfbench` package (release, offline, into $CARGO_TARGET_DIR or
`.bench_build/`), then runs `perfbench` (--trace 0: end-to-end metrics) or
`perfbench-traced` (--trace 1: per-layer metrics).  The last line of standard
output is the result as one JSON object; the line before it stamps the
result with its provenance.  Build output goes to standard error.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tw", "dense", "durable")
# Sources whose digest identifies the measured code when git is unavailable.
SOURCE_GLOBS = ("Cargo.toml", "Cargo.lock", "crates/**/*.rs", "crates/**/Cargo.toml",
                "perfbench/Cargo.toml", "perfbench/Cargo.lock", "perfbench/src/**/*.rs")
BUILD_TIMEOUT_S = 870


def command_output(argv):
    try:
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def git_commit():
    """HEAD of the repository at ROOT, or "unknown" outside a git checkout."""
    toplevel = command_output(["git", "rev-parse", "--show-toplevel"])
    if toplevel == "unknown" or Path(toplevel).resolve() != ROOT:
        return "unknown"
    return command_output(["git", "rev-parse", "HEAD"])


def source_digest():
    digest = hashlib.sha256()
    files = sorted({p for pattern in SOURCE_GLOBS for p in ROOT.glob(pattern)
                    if p.is_file() and "target" not in p.relative_to(ROOT).parts})
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "dengraph-core").is_dir():
        print("perfbench: the dengraph sources are not next to perfbench/; "
              "run from a full checkout", file=sys.stderr)
        return 2

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
             "--manifest-path", str(HERE / "Cargo.toml"), "--bins"]
    # A session of its own, so a timed-out build is stopped with its rustc
    # children.
    cargo = subprocess.Popen(build, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = cargo.wait(timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(cargo.pid, signal.SIGKILL)
        cargo.wait()
        print("perfbench: build timed out", file=sys.stderr)
        return 3
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    env.update(
        PERFBENCH_RUSTC=command_output(["rustc", "--version"]),
        PERFBENCH_GIT_COMMIT=git_commit(),
        PERFBENCH_SOURCE_SHA256=source_digest(),
    )
    binary = target / "release" / ("perfbench-traced" if args.trace else "perfbench")
    argv = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # The benchmark replaces this process, so stopping it stops the run.
    os.chdir(ROOT)
    os.execve(binary, argv, env)


if __name__ == "__main__":
    sys.exit(main())
