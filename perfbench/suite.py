#!/usr/bin/env python3
"""Run workloads over several seeds and print one row per workload.

    python3 perfbench/suite.py --seeds 1-10 [--workloads a,b] [--out FILE]

Each (workload, seed) runs `perfbench/run.py` in its own process, one at
a time, for the `run_seconds` of BENCHMARK.json.  The table shows, per
workload, the median over seeds of every end-to-end metric (with its unit),
the oracle failure share, steps per second where the workload runs the
machine directly, and the deep-term probe failures.  Below it, each
metric's spread over seeds (interquartile range over median) is set against
its bound in BENCHMARK.json; a spread above a third of the bound is flagged.  Records go to --out (default
perfbench/out/).  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import quartile_spread  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def load_spec() -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_one(workload: str, seed: int, out: str, cwd: str | None = None) -> dict:
    """Run one untraced (workload, seed) from the checkout `cwd` (default:
    the current directory), append its record to `out` and return it."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(load_spec()["run_seconds"]),
           "--trace", "0", "--out", out]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    with open(out, encoding="utf-8") as f:
        return json.loads(f.readlines()[-1])


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-3")
    parser.add_argument("--out", help="JSON-lines file that collects every record")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    out = args.out or os.path.join(HERE, "out", f"suite_{time.strftime('%Y%m%d_%H%M%S')}.jsonl")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    records: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            record = run_one(workload, seed, out)
            records.setdefault(workload, []).append(record)
            print(f"# {workload} seed {seed}: correct {record['correct']} "
                  f"fingerprint {record['fingerprint']}", file=sys.stderr)

    names = list(bounds)
    header = ["workload"] + [f"{n} [{bounds[n]['unit']}]" for n in names] + [
        "fail_share", "steps_per_s [1/s]", "tail", "probe_fail_share"]
    print(" | ".join(header))
    for workload, recs in records.items():
        row = [workload]
        for name in names:
            row.append(f"{statistics.median(r['metrics'][name]['value'] for r in recs):.6g}")
        attempted = sum(r["attempted"] for r in recs)
        row.append(f"{sum(r['failed'] for r in recs) / attempted:.6g}")
        steps = [r["extra"]["steps_per_s"] for r in recs if r["extra"]["steps_per_s"]]
        row.append(f"{statistics.median(steps):.6g}" if steps else "n/a")
        row.append(recs[0]["extra"]["tail_percentile"])
        probe_attempts = sum(r["probes"]["attempted"] for r in recs)
        probe_failed = sum(sum(r["probes"]["failures"].values()) for r in recs)
        row.append(f"{probe_failed / probe_attempts:.6g} {recs[0]['probes']['failures']}"
                   if probe_attempts else "n/a")
        print(" | ".join(row))

    print("\nspread over seeds (IQR / median) against bound/3:")
    worst = 0.0
    for workload, recs in records.items():
        cells = []
        for name in names:
            spread = quartile_spread([r["metrics"][name]["value"] for r in recs])
            share = spread / bounds[name]["bound"]
            if name != "setup_s":
                worst = max(worst, share)
            flag = "!" if share > 1 / 3 else ""
            cells.append(f"{name} {spread:.3f}{flag}")
        print(f"  {workload}: " + ", ".join(cells))
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    print(f"records: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
