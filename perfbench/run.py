#!/usr/bin/env python3
"""Build the perfbench Go program from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload game-out --seed 1 --seconds 20 --trace 0

The binary and the Go build cache live under .bench_build/ in the
checkout, so nothing is read or written outside it besides the Go
toolchain. Every argument is passed on to the program, whose last line
of standard output is the JSON result. A failed build exits nonzero
without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    out = os.path.join(root, ".bench_build")
    binary = os.path.join(out, "perfbench", "perfbench")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=tmp,
        GOENV="off",
        GOFLAGS="-mod=mod",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    build = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=bench, env=env, stdout=sys.stderr
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
