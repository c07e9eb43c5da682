#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload cluster-1d --seed 1 --seconds 20 --trace 0

Builds perfbench/ (a Go module that imports the repository through a
replace directive) with its Go build cache and binary under the build
directory ($CARGO_TARGET_DIR, default .bench_build), then runs the binary
with the given arguments. The binary prints the result JSON as its last
line. A failed build exits non-zero without printing a result.
"""
import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out = os.path.join(build, "perfbench")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    binary = os.path.join(out, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"), env=env,
        stdout=sys.stderr, stderr=sys.stderr, timeout=850,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    ran = subprocess.run([binary, "--state-dir", out] + sys.argv[1:], cwd=root, env=env, timeout=175)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
