#!/usr/bin/env python3
"""Builds and runs the end-to-end CTS benchmark from the repository root.

    python3 perfbench/run.py --workload scale_synth --seed 1 --seconds 20 --trace 0

Workloads: scale_synth, gsrc_verify, serve_mixed. The benchmark package
(perfbench/Cargo.toml) is compiled in release mode into $CARGO_TARGET_DIR
(default: .bench_build); the binary prints a report and, as its last line,
one JSON object with the metrics. A build failure exits non-zero without
printing a result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "cts-perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
