#!/usr/bin/env python3
"""Run one kamio benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload compiled_fn --seed 1 --seconds 20 --trace 0

The library is imported from `./src` of the current directory.  Inputs
come from the seed; one closed-loop caller (one process, one thread)
issues library calls back to back, and every result is checked by an
oracle that does not use the code under test to decide.  A cycle runs
every op of the workload once, with a fixed reference task timed between
ops.  An op's time is its median, over the cycles, of its time relative to
the reference around it, times a fixed reference time: its time at a fixed
machine speed (see PREDICTIONS.md for why).

`--trace 0` prints the end-to-end metrics; `--trace 1` is a separate run
that prints the per-layer metrics, the tracing overhead and the spans'
self time per layer, and writes its spans to perfbench/out/.  Human-readable rows come first; the last line of
standard output is one JSON object with keys correct, attempted, failed
and metrics.  `--out FILE` also appends a full record (environment,
fingerprint, extra rows) to FILE as one JSON line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter

import harness as H
import layers
from workloads import WORKLOADS

MIN_CYCLES = 5
SETUP_EVERY_S = 1.0

END_TO_END = ("setup_s", "ops_per_s", "op_ms.p50", "op_ms.tail", "decided_share",
              "peak_rss_mb")

PER_LAYER = (
    "syntax.substitute.us_per_call", "syntax.hash.us_per_call",
    "syntax.alpha_eq.us_per_call", "syntax.parse.us_per_call",
    "syntax.pretty.us_per_call", "syntax.recursion_errors",
    "machine.exec_step.us_per_call", "machine.eval_step.us_per_call",
    "machine.steps", "machine.tau_share", "machine.run.share",
    "equivalence.observable.us_per_call", "equivalence.lts_step.us_per_call",
    "equivalence.states", "equivalence.weak_bisim.share",
    "equivalence.top_equiv.ms_per_call",
    "combinators.compile_function.us_per_call", "combinators.decode_numeral.ms_per_call",
    "realizability.member.finite.us_per_call", "realizability.member.function.us_per_call",
    "realizability.member.trace.us_per_call", "realizability.member.union.us_per_call",
    "realizability.member.calls", "realizability.check_entailment.ms_per_call",
    "realizability.consistency_probe.ms_per_call", "cli.main.overhead_ms",
    "bench.self_ms", "machine.self_ms", "equivalence.self_ms", "combinators.self_ms",
    "realizability.self_ms", "cli.self_ms", "trace.overhead_ratio",
)


class Runner:
    """Executes ops, counts failures by type, and never lets one end the run."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failures: Counter[str] = Counter()
        self.examples: dict[str, str] = {}

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def execute(self, op, tr):
        self.attempted += 1
        start = time.perf_counter()
        try:
            outcome = op.call(tr)
        except Exception as exc:  # an op that raises is a counted failure
            elapsed = time.perf_counter() - start
            key = type(exc).__name__
            self.failures[key] += 1
            self.examples.setdefault(key, f"{op.kind}: {str(exc)[:120]}")
            return elapsed, H.Outcome(f"{op.kind} raised {key}", key, checks=1, decided=0)
        elapsed = time.perf_counter() - start
        if outcome.error is not None:
            self.failures["wrong_output"] += 1
            self.examples.setdefault("wrong_output", f"{op.kind}: {outcome.error[:200]}")
        return elapsed, outcome

    def cycle(self, tr=H.NULL_TRACER, reference: bool = False) -> dict:
        """Run every op once.  With `reference`, the reference task is timed
        before each op and after the last one ("refs", seconds), and
        "relative" holds each op's time relative to the reference around it."""
        fp = H.Fingerprint()
        checks = decided = 0
        op_steps, times, refs = [], [], []
        start = time.perf_counter()
        for i, op in enumerate(self.ops):
            if reference:
                refs.append(H.reference_seconds())
            tr.op_id = i
            with tr.span(f"bench.{op.kind}"):
                elapsed, outcome = self.execute(op, tr)
            times.append(elapsed)
            fp.add(outcome.record)
            op_steps.append(outcome.steps)
            checks += outcome.checks
            decided += outcome.decided
        relative = []
        if reference:
            refs.append(H.reference_seconds())
            relative = [H.relative_time(t, refs[i], refs[i + 1]) for i, t in enumerate(times)]
        return {"wall": time.perf_counter() - start, "fingerprint": fp.hexdigest(),
                "op_steps": op_steps, "checks": checks, "decided": decided,
                "refs": refs, "relative": relative}


def setup_once(root: str, name: str, seed: int):
    """Import kamio afresh and build the workload: (seconds, k, workload)."""
    gc.collect()
    start = time.perf_counter()
    k = H.load_kamio(root)
    workload = WORKLOADS[name].build(k, seed)
    return time.perf_counter() - start, k, workload


def measure(runner: Runner, seconds: float, warm: dict, resetup) -> tuple[dict, dict]:
    """Repeat whole cycles for `seconds`, set-up about once a second between
    them.  Every op and set-up is timed relative to the reference task
    around it; the medians of those ratios, times H.REFERENCE_S, are the
    times reported."""
    n = len(runner.ops)
    q = H.tail_percentile(n)
    per_op: list[list[float]] = [[] for _ in range(n)]
    all_refs: list[float] = []

    def relative_setup() -> float:
        before = H.reference_seconds()
        elapsed = resetup()
        after = H.reference_seconds()
        all_refs.extend((before, after))
        return H.relative_time(elapsed, before, after)

    setups = [relative_setup()]
    cycles = mismatches = 0
    start = last_setup = time.perf_counter()
    while cycles < MIN_CYCLES or time.perf_counter() - start < seconds:
        c = runner.cycle(reference=True)
        cycles += 1
        mismatches += c["fingerprint"] != warm["fingerprint"]
        for slot, ratio in zip(per_op, c["relative"]):
            slot.append(ratio)
        all_refs.extend(c["refs"])
        if time.perf_counter() - last_setup >= SETUP_EVERY_S:
            setups.append(relative_setup())
            last_setup = time.perf_counter()
    op_s = [statistics.median(ratios) * H.REFERENCE_S for ratios in per_op]
    steps_time = sum(t for t, steps in zip(op_s, warm["op_steps"]) if steps)
    metrics = {
        "setup_s": (statistics.median(setups) * H.REFERENCE_S, "s"),
        "ops_per_s": (n / sum(op_s), "1/s"),
        "op_ms.p50": (statistics.median(op_s) * 1e3, "ms"),
        "op_ms.tail": (H.percentile(op_s, q) * 1e3, "ms"),
        "decided_share": (warm["decided"] / warm["checks"], "share"),
    }
    extra = {
        "tail_percentile": f"p{round(q * 100)}",
        "samples": n,
        "cycles": cycles,
        "setup_reps": len(setups),
        "reference_ms": {"best": min(all_refs) * 1e3,
                         "median": statistics.median(all_refs) * 1e3},
        "measured_s": round(time.perf_counter() - start, 3),
        "steps_per_s": sum(warm["op_steps"]) / steps_time if steps_time else None,
        "fingerprint_mismatches": mismatches,
    }
    return metrics, extra


def measure_traced(k, runner: Runner, workload, seed: int, seconds: float,
                   warm: dict, errors: Counter) -> tuple[dict, dict, H.Tracer]:
    """Alternate untraced and traced cycles for `seconds`, then profile one
    cycle and replay each layer's public functions.  The tracing overhead
    compares the cycles' op times relative to the reference task."""
    tracer = H.Tracer()
    plain, traced = [], []
    mismatches = 0
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for use_tracer in order:
            c = runner.cycle(tracer if use_tracer else H.NULL_TRACER, reference=True)
            (traced if use_tracer else plain).append(sum(c["relative"]))
            mismatches += c["fingerprint"] != warm["fingerprint"]
    metrics = {}
    self_times = tracer.self_times()
    for layer in ("bench", "machine", "equivalence", "combinators", "realizability", "cli"):
        metrics[f"{layer}.self_ms"] = (self_times.get(layer, 0.0) / len(traced) * 1e3, "ms")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain),
                                       "ratio")
    metrics.update(layers.profile_shares(k, runner.cycle))
    metrics.update(layers.layer_metrics(k, workload, seed, errors))
    extra = {"spans": len(tracer.spans), "traced_cycles": len(traced),
             "fingerprint_mismatches": mismatches}
    return metrics, extra, tracer


def write_spans(path: str, tracer) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        for name, start, end, parent, op_id in tracer.spans:
            f.write(json.dumps({"name": name, "start": start, "end": end,
                                "parent": parent, "op": op_id}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)
    root = os.getcwd()

    try:
        _, k, workload = setup_once(root, args.workload, args.seed)
    except H.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = H.environment(root, args.seed)

    runner = Runner(workload.ops)
    warm = runner.cycle()
    errors: Counter[str] = Counter()
    if args.trace:
        metrics, extra, tracer = measure_traced(k, runner, workload, args.seed,
                                                args.seconds, warm, errors)
    else:
        metrics, extra = measure(runner, args.seconds, warm,
                                 lambda: setup_once(root, args.workload, args.seed)[0])

    probes = Runner(workload.probes)
    for op in workload.probes:
        probes.execute(op, H.NULL_TRACER)
    if args.trace:
        recursion = (runner.failures["RecursionError"] + probes.failures["RecursionError"]
                     + errors["RecursionError"])
        metrics["syntax.recursion_errors"] = (recursion, "count")
        spans_path = os.path.join("perfbench", "out", f"spans_{args.workload}_{args.seed}.jsonl")
        write_spans(spans_path, tracer)
        extra["spans_file"] = spans_path
    else:
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MB")

    wanted = PER_LAYER if args.trace else END_TO_END
    missing = set(wanted) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metric set differs from the declared one: {sorted(missing)}")
    correct = (runner.failed == 0 and extra["fingerprint_mismatches"] == 0
               and errors["steps_mismatch"] == 0)
    env["loadavg_end"] = round(os.getloadavg()[0], 2)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name in wanted:
        value, unit = metrics[name]
        print(f"  {name:44s} {value:14.6g} {unit}")
    probe_share = probes.failed / probes.attempted if probes.attempted else 0.0
    print(f"  {'fail_share':44s} {runner.failed / runner.attempted:14.6g} share  "
          f"({runner.failed}/{runner.attempted} ops)")
    if extra.get("steps_per_s"):
        print(f"  {'steps_per_s':44s} {extra['steps_per_s']:14.6g} 1/s")
    if not args.trace:
        ref = extra["reference_ms"]
        print(f"  times are medians over {extra['cycles']} cycles ({extra['setup_reps']} "
              f"set-ups) relative to the reference task, at a reference time of "
              f"{H.REFERENCE_S * 1e3:g} ms (this run: best {ref['best']:.4f} ms, median "
              f"{ref['median']:.4f} ms); op_ms.tail is {extra['tail_percentile']} "
              f"of {extra['samples']} ops")
    for key, count in sorted(runner.failures.items()):
        print(f"  failure {key}: {count}  e.g. {runner.examples[key]}")
    if probes.attempted:
        print(f"  deep-term probes (untimed, outside the gated counts): "
              f"{probes.failed}/{probes.attempted} failed "
              f"{dict(probes.failures)}  fail_share {probe_share:.6g}")
    print(f"  fingerprint {warm['fingerprint']}  repeats {extra['fingerprint_mismatches'] == 0}")
    if args.trace:
        print(f"  machine.steps repeats {errors['steps_mismatch'] == 0}; "
              f"{extra['spans']} spans written to {extra['spans_file']}")
    print(f"  env {json.dumps(env, sort_keys=True)}")

    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted},
    }
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, fingerprint=warm["fingerprint"], env=env,
                      extra=extra, failures=dict(runner.failures),
                      probes={"attempted": probes.attempted, "failures": dict(probes.failures)})
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
