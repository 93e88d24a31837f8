#!/usr/bin/env python3
"""Compare a parent and a change with alternating runs of this benchmark.

Collect results (runs this checkout's benchmark code against each tree's
`src/`, alternating which side goes first in each pair, same seed on both
sides of a pair):

    python3 perfbench/compare.py run --parent ../parent --change . \
        --pairs 10 --out results/

Report (one row per workload and metric):

    python3 perfbench/compare.py report results/parent.jsonl results/change.jsonl

Rules, per metric and workload:

- at least 10 pairs, matched by seed;
- gain: the change wins at least 9 of 10 pairs (ties count for neither)
  and the medians differ, in the better direction, by more than the
  parent's interquartile range;
- regressed: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
- unresolved: the parent's own spread (IQR over median) is wider than the
  bound, unless every change run is better than every parent run;
- unchanged: otherwise;
- no gain is granted to a workload on which the change fails more ops
  than the parent, or on which any change run is not correct.

Every run lasts the `run_seconds` of BENCHMARK.json, the length the
bounds were set on.

The behaviour fingerprints of the two sides are compared seed by seed; a
change in outputs, verdicts, witnesses or step counts shows as "changed".
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import quartiles  # noqa: E402
from suite import load_spec, run_one  # noqa: E402

MIN_PAIRS = 10


def collect(args, spec) -> int:
    os.makedirs(args.out, exist_ok=True)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                out = os.path.join(os.path.abspath(args.out), f"{side}.jsonl")
                try:
                    run_one(workload, seed, out, cwd=sides[side])
                except RuntimeError as exc:
                    print(exc, file=sys.stderr)
                    return 1
                print(f"pair {i} seed {seed} {workload} {side}: ok", flush=True)
    return 0


def read(path: str) -> dict:
    """(workload, seed) -> record, keeping the last record of each."""
    out = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("trace") == 0:
                out[(rec["workload"], rec["seed"])] = rec
    return out


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            gain_refused: str | None = None) -> str:
    """`gain_refused`, when set, says why a gain may not be granted."""
    n = len(parent)
    if n < MIN_PAIRS:
        return f"insufficient ({n} pairs < {MIN_PAIRS})"
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    gain = sign * (cm - pm)
    if wins >= 0.9 * n and gain > p3 - p1:
        if gain_refused is None:
            return f"gain ({wins}/{n} wins)"
        return f"unchanged (would gain, {wins}/{n} wins, but {gain_refused})"
    if pm and (p3 - p1) / abs(pm) > bound:
        if sign * (min(change) if sign > 0 else max(change)) > \
                sign * (max(parent) if sign > 0 else min(parent)):
            return "unchanged (every change run better)"
        return "unresolved (parent spread above bound)"
    if pm and -gain / abs(pm) > bound:
        return f"regressed (worse by {-gain / abs(pm):.1%} > {bound:.0%})"
    return f"unchanged ({wins}/{n} wins)"


def report(args, spec) -> int:
    parent, change = read(args.parent_file), read(args.change_file)
    metrics = spec["end_to_end"]
    workloads = sorted({w for w, _ in parent} & {w for w, _ in change})
    for workload in workloads:
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        print(f"{workload}  ({len(seeds)} pairs)")
        parent_failed = sum(parent[(workload, s)]["failed"] for s in seeds)
        change_failed = sum(change[(workload, s)]["failed"] for s in seeds)
        incorrect = [s for s in seeds if not change[(workload, s)]["correct"]]
        refused = None
        if change_failed > parent_failed:
            refused = f"change fails {change_failed} ops, parent {parent_failed}"
        elif incorrect:
            refused = f"change not correct on seeds {incorrect}"
        for m in metrics:
            p = [parent[(workload, s)]["metrics"][m["name"]]["value"] for s in seeds]
            c = [change[(workload, s)]["metrics"][m["name"]]["value"] for s in seeds]
            pq, cq = quartiles(p), quartiles(c)
            print(f"  {m['name']:16s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
                  f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {m['unit']:6s} "
                  f"{verdict(p, c, m['better'], m['bound'], refused)}")
        changed = [s for s in seeds
                   if parent[(workload, s)]["fingerprint"] != change[(workload, s)]["fingerprint"]]
        print(f"  behaviour        {'changed on seeds ' + str(changed) if changed else 'same'}"
              f"; failed ops parent {parent_failed}, change {change_failed}"
              f"; change not correct on seeds {incorrect or 'none'}")
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="collect alternating parent/change runs")
    p.add_argument("--parent", required=True, help="root of the parent checkout")
    p.add_argument("--change", required=True, help="root of the changed checkout")
    p.add_argument("--workloads", help="comma-separated (default: all)")
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--first-seed", type=int, default=1000)
    p.add_argument("--out", required=True, help="directory for parent.jsonl and change.jsonl")
    p = sub.add_parser("report", help="apply the comparison rules")
    p.add_argument("parent_file")
    p.add_argument("change_file")
    args = parser.parse_args(argv)
    return collect(args, spec) if args.command == "run" else report(args, spec)


if __name__ == "__main__":
    sys.exit(main())
