#!/usr/bin/env python3
"""Build the perfbench program from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ingest|lookup|scan --seed N --seconds S --trace 0|1

The Go build cache, the binary, scratch databases and span dumps all live
under .bench_build/ in the checkout, so nothing is read or written outside
it. Build output goes to standard error; the program's standard output is
passed through, so its last line is the result JSON.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    return env


def main():
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench.bin")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(ROOT, "perfbench"),
        env=go_env(),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    run = subprocess.run(
        [binary, *sys.argv[1:], "--dir", os.path.join(BUILD, "perfbench")],
        cwd=ROOT,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
