#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload profile|collect|analyze \
        [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/main.exe with dune inside the checkout (no shared build
cache; build output goes to stderr), then runs it with the given
arguments plus the host facts it records.  The benchmark's own last line
of standard output is the JSON result.  Exits non-zero without a result
when the build or the run fails.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def git_rev():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "--display",
         "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    nproc = len(os.sched_getaffinity(0))
    args = [EXE] + sys.argv[1:] + ["--nproc", str(nproc), "--git-rev", git_rev()]
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
