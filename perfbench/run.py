#!/usr/bin/env python3
"""Builds the S-Node benchmark from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 45 --trace 0

The benchmark is compiled (Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; the first run builds it, later
runs only check it is up to date. Stores, spill files and the child
process of the out-of-core build live under a work directory there that
is removed when the run ends. The last line of stdout is the result JSON.
`--smoke 1` runs a tiny input for a quick end-to-end check.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds the benchmark; returns the binary's path."""
    binary = os.path.join(build_dir, "perfbench")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
    ]
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve-hot", "cold"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_root = os.path.abspath(target)
    binary = build(os.path.join(out_root, "perfbench"))

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--smoke", str(args.smoke), "--workdir", out_root]
    # A session of its own, so that a timeout also stops the out-of-core
    # build's child process.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        out = None
    finally:
        shutil.rmtree(os.path.join(out_root, "work-%d" % proc.pid),
                      ignore_errors=True)
    if out is None:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit("perfbench: benchmark exited with %d" % proc.returncode)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("perfbench: no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")


if __name__ == "__main__":
    main()
