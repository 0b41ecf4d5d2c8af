#!/usr/bin/env python3
"""Compare a fresh benchmark run against a checked-in baseline.

Inputs are either of the two shapes the bench binaries produce:
  - a JSON document with a "rows" list (bench_table1_dispatch
    --matrix-only, bench_fleet), or
  - JSON-lines: one row object per line, non-JSON lines ignored
    (bench_ablation's stdout mixes human tables with JSON rows).

Rows are matched by their identity fields (bench, case, mode, stack,
loss, ...) and each measured metric is compared by ratio. A metric
regresses when it moves in its bad direction by more than the threshold:

    higher is worse:  *_ns, *_us, ns_per_raise, *_ratio, retransmissions,
                      frames_lost, dead
    lower is worse:   raises_per_sec, delivered_per_sec, responses,
                      established

Fields in neither set (counts of offered work, booleans, seeds) are
identity or informational and never gate. A baseline row missing from
the new run fails — silently dropping a case is how regressions hide.
New rows absent from the baseline are reported but pass, so adding a
bench case does not require touching the gate in the same commit.

Exit status: 0 = no regressions, 1 = regressions or missing rows,
2 = usage/parse errors.

Usage:
  bench_diff.py baseline.json fresh.json
  bench_diff.py baseline.json fresh.json --threshold 1.5
  bench_diff.py base.json new.json --allow 'ablation/*/max_ns' \\
      --allow 'fleet/reno/0.05/latency_p99_us'
  bench_diff.py base.json new.json --per 'fleet/*/retransmissions=3.0'

Allow patterns and --per overrides are fnmatch globs over
"rowkey/metric" (rowkey is the identity fields joined with '/').
"""

import argparse
import fnmatch
import json
import sys

# Identity fields, in the order they form the row key. A field only
# contributes when the row has it.
KEY_FIELDS = (
    "bench", "case", "mode", "stack", "loss", "threads", "handlers",
    "hosts", "connections", "payload", "guard", "traced", "name",
)

HIGHER_IS_WORSE_SUFFIXES = ("_ns", "_us", "_ratio")
HIGHER_IS_WORSE = {"ns_per_raise", "retransmissions", "frames_lost", "dead"}
LOWER_IS_WORSE = {
    "raises_per_sec", "delivered_per_sec", "responses", "established",
}


def classify(metric):
    """Returns 'high', 'low', or None (not gated)."""
    if metric in HIGHER_IS_WORSE:
        return "high"
    if metric in LOWER_IS_WORSE:
        return "low"
    if metric.endswith(HIGHER_IS_WORSE_SUFFIXES):
        return "high"
    return None


def load_rows(path):
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = None
        if isinstance(doc, dict) and isinstance(doc.get("rows"), list):
            return doc["rows"]
        if isinstance(doc, dict):
            return [doc]
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(row, dict):
            rows.append(row)
    return rows


def row_key(row):
    parts = []
    for field in KEY_FIELDS:
        if field in row:
            parts.append(str(row[field]))
    return "/".join(parts) if parts else json.dumps(row, sort_keys=True)


def index_rows(rows, path):
    by_key = {}
    for row in rows:
        key = row_key(row)
        if key in by_key:
            print(f"bench_diff: {path}: duplicate row key '{key}'",
                  file=sys.stderr)
        by_key[key] = row
    return by_key


def threshold_for(series, default, overrides):
    for pattern, value in overrides:
        if fnmatch.fnmatch(series, pattern):
            return value
    return default


def main():
    parser = argparse.ArgumentParser(
        description="Gate benchmark results against a baseline.")
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--threshold", type=float, default=1.5,
                        help="ratio past which a metric regresses "
                        "(default 1.5; deterministic virtual-time rows "
                        "can use values near 1.0)")
    parser.add_argument("--allow", action="append", default=[],
                        metavar="GLOB",
                        help="fnmatch over 'rowkey/metric'; matching "
                        "series never gate (repeatable)")
    parser.add_argument("--per", action="append", default=[],
                        metavar="GLOB=RATIO",
                        help="per-series threshold override (repeatable)")
    args = parser.parse_args()

    overrides = []
    for spec in args.per:
        pattern, sep, value = spec.rpartition("=")
        try:
            overrides.append((pattern, float(value)))
        except ValueError:
            sep = ""
        if not sep:
            print(f"bench_diff: bad --per '{spec}' (want GLOB=RATIO)",
                  file=sys.stderr)
            return 2

    try:
        base = index_rows(load_rows(args.baseline), args.baseline)
        fresh = index_rows(load_rows(args.fresh), args.fresh)
    except OSError as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 2
    if not base:
        print(f"bench_diff: {args.baseline}: no benchmark rows found",
              file=sys.stderr)
        return 2

    failures = []
    compared = 0
    allowed = 0
    for key, base_row in sorted(base.items()):
        if key not in fresh:
            failures.append(f"missing row: {key}")
            continue
        fresh_row = fresh[key]
        for metric, base_val in base_row.items():
            direction = classify(metric)
            if direction is None:
                continue
            if not isinstance(base_val, (int, float)) or \
                    isinstance(base_val, bool):
                continue
            fresh_val = fresh_row.get(metric)
            if not isinstance(fresh_val, (int, float)) or \
                    isinstance(fresh_val, bool):
                failures.append(f"{key}/{metric}: missing in fresh run")
                continue
            series = f"{key}/{metric}"
            if any(fnmatch.fnmatch(series, p) for p in args.allow):
                allowed += 1
                continue
            limit = threshold_for(series, args.threshold, overrides)
            compared += 1
            if direction == "high":
                bound = base_val * limit
                if fresh_val > bound and fresh_val - base_val > 0:
                    failures.append(
                        f"{series}: {fresh_val:g} > {base_val:g} * "
                        f"{limit:g} (worse is higher)")
            else:
                bound = base_val / limit
                if fresh_val < bound:
                    failures.append(
                        f"{series}: {fresh_val:g} < {base_val:g} / "
                        f"{limit:g} (worse is lower)")

    extra = sorted(set(fresh) - set(base))
    for key in extra:
        print(f"bench_diff: new row (not gated): {key}", file=sys.stderr)

    if failures:
        for failure in failures:
            print(f"REGRESSION {failure}")
        print(f"bench_diff: {len(failures)} regression(s) over "
              f"{compared} gated series ({allowed} allowlisted)")
        return 1
    print(f"OK: {compared} series within threshold, {allowed} "
          f"allowlisted, {len(base)} row(s) matched")
    return 0


if __name__ == "__main__":
    sys.exit(main())
