#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload small-files --seed 1 --seconds 10 --trace 0

The Go build cache, the binary, the store directories and the span files
all live in .bench_build at the checkout root, so nothing is read or
written outside the checkout except the Go toolchain itself. The last
line of standard output is the benchmark's JSON result; the exit code is
the benchmark's, or 1 when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    home = os.path.join(WORK, "home")
    env.update({
        "GOCACHE": os.path.join(WORK, "gocache"),
        "GOMODCACHE": os.path.join(WORK, "gomodcache"),
        "GOPATH": os.path.join(WORK, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "CGO_ENABLED": "0",
    })
    return env


def main():
    os.makedirs(os.path.join(WORK, "home"), exist_ok=True)
    binary = os.path.join(WORK, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env())
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "--workdir", WORK] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
