"""realize: seeded scenario JSON through `kamio realize - --format json`.

Every scenario has a status known by construction:

- entailments over finite poles that hold by construction (verified), and
  copies with one planted bad realizer (refuted, witness known);
- consistency probes (verified, or refuted with a known violation);
- realizes checks over function, trace and union poles.

Parsing, enumeration, membership and report printing do the work; the
machine does little.  Deep terms the grammar accepts are run as untimed
probes, which at the seed fail with RecursionError.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys

from harness import Op, Outcome, Workload

VALUES = (r"\u. \v. u", r"\u. \v. v", "#2", "#3", r"\a. \b. \c. b")
STACKS = ("nil", "#1 :: nil", r"(\e. e) :: #0 :: nil")
POISON = r"(\p1. \p2. \p3. \p4. p1)"
CANDIDATES = (r"\x. x", r"\x. \y. x", "cc", r"\x. \y. y x", "#2")
PROBE_STACKS = ("nil", "end :: nil", "#1 :: nil")
COPY_LOOP_STACK = r"Y :: (\x. read (write0 x) (write1 x) end) :: nil"
SWAP_LOOP_STACK = r"Y :: (\x. read (write1 x) (write0 x) end) :: nil"
TABLE_FUNCTIONS = (("id", r"\x. x", lambda n: n), ("S", "S", lambda n: n + 1),
                   ("B", "B", lambda n: 2 * n), ("H", "H", lambda n: n // 2))
# S and B tables cost most.  Every group checks each function once and S
# and B once more, so with the two planted checks that land on S or B the
# costliest block is 22 of the 120 ops and the p90 lies inside it, not on
# its lower edge, whatever the seed.
UNPLANTED_TABLES = TABLE_FUNCTIONS + TABLE_FUNCTIONS[1:3]
FUEL = 200_000
GROUPS = 5


def realizers_for(value: str) -> list[str]:
    """Terms that reach `value * pi` from `r * pi`, for any stack pi."""
    return [value, rf"(\z. z) ({value})", rf"(\a. \b. a) ({value}) (\y. y)"]


def build(k, seed: int) -> Workload:
    rng = random.Random(f"realize:{seed}")
    defs = k.combinators.prelude_definitions(k.combinators.PRELUDE_SOURCE)

    def expand(text: str) -> str:
        return k.combinators.resolve_names(text, defs)

    scenarios = []  # (label, json object, check); 24 per group, 120 a cycle
    for group in range(GROUPS):
        for template in ("ax", "peirce", "weaken"):
            for planted in (False, False, True):
                scenarios.append(entailment(rng, template, planted))
        scenarios += [consistency_function(rng) for _ in range(2)]
        scenarios.append(consistency_finite(rng))
        # every function in every group, so the costliest block (these
        # scenarios run the machine) has the same mix whatever the seed
        for name, src, f in UNPLANTED_TABLES:
            scenarios.append(realizes_function(rng, expand, name, src, f, planted=False))
        name, src, f = TABLE_FUNCTIONS[group % len(TABLE_FUNCTIONS)]
        scenarios.append(realizes_function(rng, expand, name, src, f, planted=True))
        scenarios += [
            realizes_trace(expand, "copy", COPY_LOOP_STACK, True),
            realizes_trace(expand, "copy", SWAP_LOOP_STACK, False),
            realizes_trace(expand, "read_all_then_write",
                           "R :: F :: (\\x. x) :: #0 :: F :: W :: #0 :: nil", False),
            realizes_union(rng, expand, planted=False),
            realizes_union(rng, expand, planted=True),
        ]
    ops = [realize_op(k, label, json.dumps(obj), check) for label, obj, check in scenarios]
    rng.shuffle(ops)
    probes = [realize_op(k, label, json.dumps(obj), check)
              for label, obj, check in deep_probes(rng)]

    def harvest() -> dict:
        objs = [obj for _, obj, _ in scenarios[:len(scenarios) // GROUPS]]
        parsed = [k.realizability.scenario_from_json(obj) for obj in objs]
        return {
            "scenarios": list(zip([json.dumps(o) for o in objs], parsed)),
            "members": member_inputs(k, parsed),
            "member_calls": sum(implied_member_calls(obj) for obj in objs),
            "contexts": [k.ExecutionContext(p, "", "") for _, _, p in member_inputs(k, parsed)
                         if k.effect_constants(p)][:12],
            "terms": [t for s in parsed if s.sequent for t in (s.sequent.candidate,)]
                     + [s.term for s in parsed if s.term is not None],
        }

    return Workload("realize", ops, harvest, probes)


# ---------------------------------------------------------------------------
# Scenario builders: each returns (label, json object, check(k, report))


def entailment(rng: random.Random, template: str, planted: bool):
    indices = ["i", "j", "k"][:rng.randrange(1, 4)]
    values = {i: rng.choice(VALUES) for i in indices}
    stacks = {i: rng.sample(STACKS, rng.randrange(1, 3)) for i in indices}
    if template == "peirce":
        candidate = "cc"
        reach = {i: [rf"\c. ({values[i]})", rf"\c. c ({values[i]})"] for i in indices}
        poison = rf"\c. {POISON}"
    else:
        candidate = r"\x. x" if template == "ax" else r"\x. \y. x"
        reach = {i: rng.sample(realizers_for(values[i]), 2) for i in indices}
        poison = rf"(\a. \b. b) ({values[indices[0]]}) {POISON}"
    context = [{"predicate": [{"index": i, "stacks": ["nil"]} for i in indices],
                "realizers": [{"index": i, "terms": list(reach[i])} for i in indices]}]
    if template == "weaken":
        context.append({"predicate": [{"index": i, "stacks": ["nil"]} for i in indices],
                        "realizers": [{"index": i, "terms": rng.sample(VALUES, 2)}
                                      for i in indices]})
    expected = ("verified", None)
    if planted:
        index = rng.choice(indices)
        slot = rng.randrange(2)
        context[0]["realizers"][indices.index(index)]["terms"][slot] = poison
        combo = [poison if e == 0 else context[e]["realizers"][indices.index(index)]["terms"][0]
                 for e in range(len(context))]
        expected = ("refuted", (index, combo, stacks[index][0]))
    obj = {
        "kind": "entailment",
        "pole": {"kind": "finite", "fuel": 2000,
                 "seeds": [f"({values[i]}) * {s}" for i in indices for s in stacks[i]]},
        "context": context,
        "conclusion": [{"index": i, "stacks": stacks[i]} for i in indices],
        "candidate": candidate,
        "fuel": 5000,
    }

    def check(k, report):
        status, witness = expected
        verdict = report["verdict"]
        if verdict["status"] != status:
            return f"status {verdict['status']} != {status}"
        if witness is not None:
            index, combo, stack = witness
            got = verdict.get("witness")
            if (not got or got[0] != index or len(got[1]) != len(combo)
                    or any(k.parse_term(a) != k.parse_term(b) for a, b in zip(got[1], combo))
                    or k.parse_stack(got[2]) != k.parse_stack(stack)):
                return f"witness {got!r} != {witness!r}"
        return None

    return f"entailment.{template}.{'planted' if planted else 'sound'}", obj, check


def consistency_function(rng: random.Random):
    candidates = rng.sample(CANDIDATES, 3)
    samples = rng.sample(PROBE_STACKS, 3)
    obj = {"kind": "consistency",
           "pole": {"kind": "function", "table": {str(n): n for n in range(4)}},
           "candidates": candidates, "stack_samples": samples, "fuel": FUEL}

    def check(k, report):
        if report["verdict"]["status"] != "verified":
            return f"status {report['verdict']['status']}"
        for probe in report["candidates"]:
            if probe["status"] != "witness_found" or \
                    k.parse_stack(probe["witness"]) != k.parse_stack(samples[0]):
                return f"probe {probe!r}"
        return None

    return "consistency.function", obj, check


def consistency_finite(rng: random.Random):
    value = rng.choice(VALUES)
    stack = rng.choice(STACKS)
    obj = {"kind": "consistency",
           "pole": {"kind": "finite", "seeds": [f"({value}) * {stack}"], "fuel": 2000},
           "candidates": [r"\x. x"], "stack_samples": [f"({value}) :: {stack}", "nil"],
           "fuel": 5000}
    violation = rf"(\x. x) * ({value}) :: {stack}"

    def check(k, report):
        verdict = report["verdict"]
        got = verdict.get("witness") or []
        if verdict["status"] != "refuted" or len(got) != 1 or \
                k.parse_process(got[0]) != k.parse_process(violation):
            return f"verdict {verdict!r}"
        return None

    return "consistency.finite", obj, check


def realizes_function(rng, expand, name, src, f, planted: bool):
    rows = {n: f(n) for n in range(4)}
    if planted:
        wrong = rng.randrange(4)
        rows[wrong] += 1
    stack = expand(f"R :: F :: ({src}) :: #0 :: F :: W :: #0 :: nil")
    obj = {"kind": "realizes",
           "pole": {"kind": "function", "table": {str(n): m for n, m in rows.items()}},
           "term": r"\x. x", "truth_value": {"stacks": [stack]}, "fuel": FUEL}
    return f"realizes.function.{name}", obj, status_check(not planted, stack)


def realizes_trace(expand, spec: str, stack: str, member: bool):
    stack = expand(stack)
    obj = {"kind": "realizes",
           "pole": {"kind": "trace", "spec": spec, "max_input_len": 3},
           "term": r"\x. x", "truth_value": {"stacks": [stack]}, "fuel": FUEL}
    return f"realizes.trace.{spec}", obj, status_check(member, stack)


def realizes_union(rng, expand, planted: bool):
    value = rng.choice(VALUES)
    stacks = [f"({value}) :: nil", expand(r"R :: F :: (\x. x) :: #0 :: F :: W :: #0 :: nil")]
    if planted:
        stacks.insert(rng.randrange(3), "nil")
    obj = {"kind": "realizes",
           "pole": {"kind": "union", "members": [
               {"kind": "finite", "seeds": [f"({value}) * nil"], "fuel": 2000},
               {"kind": "function", "table": {"0": 0, "1": 1, "2": 2}}]},
           "term": r"\x. x", "truth_value": {"stacks": stacks}, "fuel": FUEL}
    return "realizes.union", obj, status_check(not planted, "nil")


def status_check(member: bool, refuting_stack: str):
    def check(k, report):
        verdict = report["verdict"]
        if member:
            if verdict["status"] != "verified" or not verdict.get("sampled"):
                return f"verdict {verdict!r}"
            return None
        if verdict["status"] != "refuted" or \
                k.parse_stack(verdict["witness"]) != k.parse_stack(refuting_stack):
            return f"verdict {verdict!r}"
        return None

    return check


def deep_probes(rng: random.Random):
    """Deep terms the grammar accepts: a numeral #k, a long parenthesis
    chain and a long lambda chain, each in a realizes scenario."""
    pole = {"kind": "finite", "seeds": [r"(\u. u) * nil"], "fuel": 2000}
    k_numeral = rng.randrange(1000, 2001)
    parens = rng.randrange(500, 1001)
    lambdas = rng.randrange(1000, 2001)
    chain = "".join(f"\\a{i}. " for i in range(lambdas)) + "a0"
    probes = [
        (f"deep.numeral.{k_numeral}", f"#{k_numeral}", "nil", status_check(False, "nil")),
        (f"deep.parens.{parens}", "(" * parens + r"\x. x" + ")" * parens,
         r"(\u. u) :: nil", plain_verified),  # a finite pole's verified is not sampled
        (f"deep.lambdas.{lambdas}", chain, "nil", status_check(False, "nil")),
    ]
    for label, term, stack, check in probes:
        obj = {"kind": "realizes", "pole": pole, "term": term,
               "truth_value": {"stacks": [stack]}, "fuel": 5000}
        yield label, obj, check


def plain_verified(k, report):
    status = report["verdict"]["status"]
    return None if status == "verified" else f"status {status}"


# ---------------------------------------------------------------------------
# The op, and inputs for the traced replays


def cli_realize(k, text: str) -> tuple[int, str]:
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = k.cli.main(["realize", "-", "--format", "json"])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


EXIT = {"verified": 0, "refuted": 2, "unknown": 3}


def realize_op(k, label: str, text: str, check) -> Op:
    def call(tr) -> Outcome:
        with tr.span("cli.main"):
            code, printed = cli_realize(k, text)
        report = json.loads(printed)
        status = report["verdict"]["status"]
        error = check(k, report)
        if error is None and code != EXIT[status]:
            error = f"exit code {code} for {status}"
        return Outcome(f"{label} {code} {printed}", error,
                       decided=int(status != "unknown"))

    return Op(label.split(".", 1)[0], call)


def member_inputs(k, parsed) -> list:
    """(pole kind, pole, process) for every membership a scenario implies,
    first few per scenario."""
    R = k.realizability
    kinds = {R.FinitePole: "finite", R.FunctionPole: "function",
             R.TracePole: "trace", R.UnionPole: "union"}
    out = []
    for s in parsed:
        kind = kinds[type(s.pole)]
        if s.sequent is not None:
            seq = s.sequent
            for index in seq.conclusion.index_set:
                lists = [tuple(e.realizers_at(index)) for e in seq.context]
                combo = [terms[0] for terms in lists]
                for pi in seq.conclusion(index):
                    stack = pi
                    for u in reversed(combo):
                        stack = stack.push(u)
                    out.append((kind, s.pole, k.Pair(seq.candidate, stack)))
        elif s.term is not None:
            out += [(kind, s.pole, k.Pair(s.term, pi)) for pi in s.truth_value]
        else:
            out += [(kind, s.pole, k.Pair(t, pi)) for t in s.candidates
                    for pi in s.stack_samples[:1]]
    return out


def implied_member_calls(obj: dict) -> int:
    """Membership checks the scenario implies, counted from its JSON."""
    if obj["kind"] == "realizes":
        return len(obj["truth_value"]["stacks"])
    if obj["kind"] == "consistency":
        return len(obj["candidates"]) * len(obj["stack_samples"]) + len(obj.get("member_samples", ()))
    total = 0
    for row in obj["conclusion"]:
        count = len(row["stacks"])
        for entry in obj["context"]:
            terms = [r["terms"] for r in entry["realizers"] if r["index"] == row["index"]]
            count *= len(terms[0]) if terms else 0
        total += count
    return total
