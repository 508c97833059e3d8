#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload (or all four).

Run from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode,
offline, into $CARGO_TARGET_DIR (default: .bench_build). Each workload runs
in its own process; its standard output is passed through, so the last line
is that workload's JSON result. The exit code is non-zero when the build
fails, a workload fails a check, or a workload does not finish in time.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["local-roundtrip", "shared-link", "serve-mixed", "nephele-records"]
HERE = os.path.dirname(os.path.abspath(__file__))
# A run measures for --seconds, then finishes the round it is in. This
# margin covers that round (about 7 s on shared-link, longer when traced)
# and the set-ups, and bounds how long one workload process may take.
TIMEOUT_MARGIN_S = 60


def build(env):
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    res = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return res.returncode == 0


def run_one(binary, workload, args, env):
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    timeout = args.seconds + TIMEOUT_MARGIN_S
    try:
        res = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in {timeout} s", file=sys.stderr)
        return 1
    sys.stdout.write(res.stdout.decode())
    sys.stdout.flush()
    return res.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for w in workloads:
        status = max(status, run_one(binary, w, args, env))
    return status


if __name__ == "__main__":
    sys.exit(main())
