#!/usr/bin/env python3
"""Runs each workload N times with distinct seeds and reports how steady
every end-to-end metric is.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs 10] [--seconds S] \
        [--workloads zipf uniform] [--first-seed 1]

For every metric it prints the median, the quartiles, the spread (the
distance between the quartiles as a share of the median, as
statistics.quantiles(values, n=4) gives them) and the range, for the gated
estimate and for the raw median of the same windows (raw_p50). Raw
figures show the host's fast/slow drift that the reference kernels
divide out. The bound column is BENCHMARK.json's; "ok" means the spread
is below a third of it (setup_s is exempt from the spread gate). Exits
nonzero if any run fails or reports a failed check.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, cwd=ROOT)
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    result = json.loads(run.stdout.strip().splitlines()[-1])
    raw = {}
    for line in run.stderr.splitlines():
        if line.startswith("perfbench-raw "):
            raw = json.loads(line[len("perfbench-raw "):])
    return result, raw


def describe(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else float("inf"),
        "range": (max(values) - min(values)) / med if med else float("inf"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    bad = False
    for workload in workloads:
        values = {}
        raws = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            result, raw = run_once(workload, seed, seconds)
            if not result["correct"] or result["failed"]:
                bad = True
                print("%s seed %d: %d of %d operations failed" %
                      (workload, seed, result["failed"], result["attempted"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, entry in raw.items():
                if isinstance(entry, dict):
                    raws.setdefault(name, []).append(entry["raw_p50"])
        print("\n== %s: %d runs of %gs, seeds %d..%d" %
              (workload, args.runs, seconds, args.first_seed,
               args.first_seed + args.runs - 1))
        print("%-16s %-6s %12s %12s %12s %7s %7s %6s %s" %
              ("metric", "kind", "median", "q1", "q3", "spread", "range",
               "bound", "verdict"))
        for name, vals in values.items():
            rows = [("gated", vals)]
            if name in raws:
                rows.append(("raw", raws[name]))
            for kind, series in rows:
                d = describe(series)
                bound = bounds.get(name)
                verdict = ""
                if kind == "gated" and bound is not None:
                    if name == "setup_s":
                        verdict = "exempt"
                    else:
                        verdict = "ok" if d["spread"] < bound / 3 else "WIDE"
                print("%-16s %-6s %12.6g %12.6g %12.6g %6.1f%% %6.1f%% %6s %s" %
                      (name, kind, d["median"], d["q1"], d["q3"],
                       100 * d["spread"], 100 * d["range"],
                       "" if bound is None else "%g" % bound, verdict))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
