#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one measurement.

Usage (from the repository root):

    python3 perfbench/run.py --workload <zipf|uniform|nojit> --seed <n> \
        --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later calls only re-run the incremental build. Compiler output
goes to build.log there, and nothing is written outside the build
directory. The benchmark's result is the last line of standard output:
one JSON object with the keys correct, attempted, failed and metrics.
The exit code is nonzero, and no result is printed, when the build or
the run fails.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("zipf", "uniform", "nojit")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    os.makedirs(out_dir, exist_ok=True)
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed (see %s)\n" % log_path)
                return None
    return os.path.join(out_dir, "perfbench")


def fixed_layout_prefix():
    """Returns a command prefix that turns off address-space randomisation.

    With randomisation on, every run places the heap, the stacks and the
    generated stubs differently, and cache-set conflicts move per-raise
    costs by a few percent from run to run. Where setarch cannot do it
    (an older util-linux, a seccomp filter), the benchmark runs with the
    default layout and says so on stderr.
    """
    prefix = ["setarch", platform.machine(), "-R"]
    try:
        ok = subprocess.run(prefix + ["true"], stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL).returncode == 0
    except OSError:
        ok = False
    if not ok:
        sys.stderr.write("perfbench: setarch -R unavailable; running with "
                         "a randomised address space\n")
        return []
    return prefix


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    cmd = fixed_layout_prefix() + [
           binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            out_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write("perfbench: run failed with code %d\n" % run.returncode)
        return run.returncode or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write("perfbench: last output line is not JSON\n")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write("perfbench: malformed result line\n")
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
