"""Per-layer numbers for the traced run.

Each `*.us_per_call` / `*.ms_per_call` metric times one public function
of a layer, replayed on inputs harvested from the running workload (a
walk of its machine contexts, its bisimulation pairs, its scenarios).
Inputs a workload does not have come from the workload that owns that
layer, built from the same seed.  Counts (`machine.steps`,
`equivalence.states`, ...) are exact and repeat for a seed.
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
import statistics
import time
from collections import Counter

from workloads import OWNERS, WORKLOADS
from workloads.realize import cli_realize

ROUNDS = 5
HARVEST_STEPS = 300
CAP = 120
RUN_FUEL = 200_000


def per_call(fn, inputs, rounds: int = ROUNDS) -> float:
    """Median over rounds of the mean seconds per call."""
    return median_over([inputs] * rounds, fn)


def rebuild(k, t):
    """A structurally equal copy of term t with fresh nodes (no cached hash),
    built with an explicit stack so depth does not matter."""
    out = []
    work = [(t, False)]
    while work:
        node, done = work.pop()
        cls = type(node)
        if cls is k.Var:
            out.append(k.Var(node.name))
        elif cls is k.Const:
            out.append(node)
        elif not done:
            work.append((node, True))
            if cls is k.App:
                work += [(node.arg, False), (node.fun, False)]
            elif cls is k.Abs:
                work.append((node.body, False))
            else:
                work += [(e, False) for e in reversed(list(node.stack))]
        elif cls is k.App:
            arg = out.pop()
            out.append(k.App(out.pop(), arg))
        elif cls is k.Abs:
            out.append(k.Abs(node.param, out.pop()))
        else:
            n = len(node.stack)
            entries = out[len(out) - n:]
            del out[len(out) - n:]
            out.append(k.Kont(k.stack_of(*entries)))
    return out[0]


def walk(k, contexts):
    """Step each context up to HARVEST_STEPS times, sampling contexts,
    silent-step processes, redexes (body, param, arg) and terms."""
    step = k.machine.exec_step_labeled
    ctxs, procs, redexes, terms = [], [], [], []
    for c in contexts:
        for i in range(HARVEST_STEPS):
            p = c.process
            if p is k.TOP:
                break
            if i % 3 == 0:
                ctxs.append(c)
                terms.append(p.term)
            if p.term.__class__ is k.Abs and not p.stack.is_empty:
                redexes.append((p.term.body, p.term.param, p.stack.head))
            nxt = step(c)
            if nxt is None:
                break
            if nxt[0] is k.Action.TAU:
                procs.append(p)
            c = nxt[1]

    def thin(xs):
        stride = max(1, len(xs) // CAP)
        return xs[::stride][:CAP]

    return thin(ctxs), thin(procs), thin(redexes), thin(terms)


def layer_metrics(k, workload, seed: int, errors: Counter) -> dict:
    """Every per-layer metric that comes from replays and counts; inputs
    that raise are left out and counted in `errors` by exception type."""
    harvest = dict(workload.harvest())
    for key, owner in OWNERS.items():
        if key not in harvest:
            harvest[key] = WORKLOADS[owner].build(k, seed).harvest()[key]
    m: dict[str, tuple[float, str]] = {}

    def guarded(fn, inputs):
        """Inputs on which fn raises nothing."""
        ok = []
        for x in inputs:
            try:
                fn(x)
            except Exception as exc:  # a failing input is reported, not fatal
                errors[type(exc).__name__] += 1
            else:
                ok.append(x)
        return ok

    us = 1e6
    ms = 1e3
    ctxs, procs, redexes, walked_terms = walk(k, harvest["contexts"])
    terms = walked_terms + list(harvest.get("terms", ()))

    # syntax
    subst = guarded(lambda r: k.substitute(*r), redexes)
    m["syntax.substitute.us_per_call"] = (per_call(lambda r: k.substitute(*r), subst) * us, "us")
    terms = guarded(lambda t: (hash(rebuild(k, t)), rebuild(k, t) == rebuild(k, t)), terms)
    copies = [[rebuild(k, t) for t in terms] for _ in range(ROUNDS)]
    m["syntax.hash.us_per_call"] = (median_over(copies, hash) * us, "us")
    pairs = [[(rebuild(k, t), rebuild(k, t)) for t in terms] for _ in range(ROUNDS)]
    m["syntax.alpha_eq.us_per_call"] = (median_over(pairs, lambda ab: ab[0] == ab[1]) * us, "us")
    texts = [k.pretty(t) for t in guarded(k.pretty, terms)]
    m["syntax.parse.us_per_call"] = (per_call(k.parse_term, guarded(k.parse_term, texts)) * us, "us")
    m["syntax.pretty.us_per_call"] = (per_call(k.pretty, terms) * us, "us")

    # machine
    m["machine.exec_step.us_per_call"] = (per_call(k.exec_step, ctxs) * us, "us")
    m["machine.eval_step.us_per_call"] = (per_call(k.eval_step, procs) * us, "us")
    steps, taus = machine_counts(k, harvest["contexts"])
    if machine_counts(k, harvest["contexts"]) != (steps, taus):
        errors["steps_mismatch"] += 1
    m["machine.steps"] = (steps, "count")
    m["machine.tau_share"] = (taus / steps if steps else 0.0, "share")

    # equivalence
    states, seen_procs = 0, []
    for p, q, depth in harvest["bisim_pairs"]:
        reached = reach(k, p, depth) | reach(k, q, depth)
        states += len(reached)
        seen_procs += list(reached)[:10]
    seen_procs = seen_procs[:CAP]
    m["equivalence.states"] = (states, "count")
    m["equivalence.observable.us_per_call"] = (per_call(k.observable, seen_procs) * us, "us")
    m["equivalence.lts_step.us_per_call"] = (per_call(k.lts_step, seen_procs) * us, "us")
    m["equivalence.top_equiv.ms_per_call"] = (
        per_call(lambda ab: k.top_equiv(*ab), harvest["top_pairs"], 3) * ms, "ms")

    # combinators
    m["combinators.compile_function.us_per_call"] = (
        per_call(k.compile_function, harvest["functions"]) * us, "us")
    m["combinators.decode_numeral.ms_per_call"] = (
        per_call(k.decode_numeral, harvest["numerals"], 3) * ms, "ms")

    # realizability
    for kind in ("finite", "function", "trace", "union"):
        inputs = [(pole, p) for kd, pole, p in harvest["members"] if kd == kind]
        m[f"realizability.member.{kind}.us_per_call"] = (
            per_call(lambda x: x[0].member(x[1]), inputs, 3) * us, "us")
    m["realizability.member.calls"] = (harvest["member_calls"], "count")
    R = k.realizability
    scenarios = [s for _, s in harvest["scenarios"]]
    m["realizability.check_entailment.ms_per_call"] = (per_call(
        lambda s: R.check_entailment(s.pole, s.sequent, s.fuel),
        [s for s in scenarios if s.kind == "entailment"], 3) * ms, "ms")
    m["realizability.consistency_probe.ms_per_call"] = (per_call(
        lambda s: R.consistency_probe(s.pole, s.candidates, s.stack_samples, s.fuel,
                                      s.member_samples),
        [s for s in scenarios if s.kind == "consistency"], 3) * ms, "ms")

    # cli
    overheads = []
    for text, _ in harvest["scenarios"]:
        for _ in range(3):
            start = time.perf_counter()
            cli_realize(k, text)
            main_s = time.perf_counter() - start
            scenario = R.scenario_from_json(json.loads(text))
            start = time.perf_counter()
            R.run_scenario(scenario)
            overheads.append(main_s - (time.perf_counter() - start))
    m["cli.main.overhead_ms"] = (statistics.median(overheads) * ms, "ms")
    return m


def machine_counts(k, contexts) -> tuple[int, int]:
    """Steps and silent steps of running every context to its end."""
    steps = taus = 0
    for c in contexts:
        result = k.run(c, RUN_FUEL)
        steps += result.steps
        taus += sum(1 for a in result.trace if a is k.Action.TAU)
    return steps, taus


def median_over(rounds, fn) -> float:
    """Median over rounds of the mean seconds per call on that round's inputs."""
    samples = []
    for inputs in rounds:
        if not inputs:
            return 0.0
        start = time.perf_counter()
        for x in inputs:
            fn(x)
        samples.append((time.perf_counter() - start) / len(inputs))
    return statistics.median(samples)


def reach(k, p, depth: int) -> set:
    """Processes reachable from p through `observable` menus in at most
    `depth` visible actions."""
    seen = set()
    frontier = [p]
    for _ in range(depth):
        nxt = []
        for x in frontier:
            o = k.observable(x)
            if o.is_menu:
                for succ in o.entries.values():
                    if succ not in seen:
                        seen.add(succ)
                        nxt.append(succ)
        frontier = nxt
    return seen


def profile_shares(k, run_cycle) -> dict:
    """Share of one profiled cycle's time spent inside `machine.run` and
    `weak_bisim`, from cProfile's cumulative times."""
    profiler = cProfile.Profile()
    profiler.enable()
    run_cycle()
    profiler.disable()
    stats = pstats.Stats(profiler, stream=io.StringIO())
    total = max(cumulative for (_, _, name), (_, _, _, cumulative, _) in stats.stats.items()
                if name == run_cycle.__name__)
    shares = {"machine.run.share": 0.0, "equivalence.weak_bisim.share": 0.0}
    for (filename, _, name), (_, _, _, cumulative, _) in stats.stats.items():
        if filename.endswith("machine.py") and name == "run":
            shares["machine.run.share"] += cumulative / total
        elif filename.endswith("equivalence.py") and name == "weak_bisim":
            shares["equivalence.weak_bisim.share"] += cumulative / total
    return {name: (value, "share") for name, value in shares.items()}
