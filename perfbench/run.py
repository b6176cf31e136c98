#!/usr/bin/env python3
"""Build and run the perfbench harness.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

The harness is a Go main package in perfbench/ (its own module, which
replaces the root module `repro` with ../ so it can drive the internal
packages). This wrapper builds it into .bench_build/ with every Go cache
and temporary directory inside the checkout, then runs it with the given
arguments. The harness prints human-readable lines followed by one JSON
result line; this wrapper passes its output through and exits with its
exit code. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    # XDG_CONFIG_HOME keeps the go command's own config and telemetry
    # counters inside the checkout too.
    for name, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "gotmp"),
                      ("GOPATH", "gopath"), ("GOMODCACHE", "gopath/pkg/mod"),
                      ("XDG_CONFIG_HOME", "config")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[name] = path
    env.update(GOENV="off", GOTOOLCHAIN="local", GOPROXY="off",
               GOWORK="off", CGO_ENABLED="0")
    return env


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at %s; run from a full checkout" % ROOT, file=sys.stderr)
        return 2
    build = subprocess.run(["go", "build", "-trimpath", "-o", BINARY, "."],
                           cwd=HERE, env=go_env(), stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    proc = subprocess.Popen([BINARY] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
