#!/usr/bin/env python3
"""Build the Remy benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Everything the build and the run write stays under .bench_build/ at the
repository root: the Go build cache, temporary files, the benchmark binary
and the per-seed reference digests. The script forwards every argument to
the benchmark binary and exits with its status. When the benchmark cannot be
built (for example outside a full checkout of the repository) it exits
non-zero without printing a result.
"""

import os
import signal
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for key, sub in (
        ("GOCACHE", "go-cache"),
        ("GOPATH", "gopath"),
        ("TMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
        ("XDG_CACHE_HOME", "cache"),
    ):
        path = os.path.join(build, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    # No network, no toolchain download, no edits to go.mod.
    env.update(GOFLAGS="-mod=readonly", GOPROXY="off", GOTOOLCHAIN="local", GOWORK="off")

    # A terminated wrapper must not leave the benchmark running:
    # subprocess.run kills and reaps its child when an exception unwinds it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    binary = os.path.join(build, "bin", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    cmd = [binary, "--inputs", os.path.join(here, "inputs"), "--state", os.path.join(build, "state")]
    return subprocess.run(cmd + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
