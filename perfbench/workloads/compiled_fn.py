"""compiled_fn: the paper's headline use of the machine.

`compile_function(t)` reads bin(n), applies t and writes bin(f(n)); the
op runs that process on bin(n), and a second op decodes `t #n` through the
writer.  The oracle is the Python function f.  Almost every step is a
silent push/pop doing `substitute`; nothing is hashed.
"""

from __future__ import annotations

import random

from harness import Op, Outcome, Workload, bits_of

# name, source (prelude names allowed), Python oracle
FUNCTIONS = (
    ("id", r"\x. x", lambda n: n),
    ("S", "S", lambda n: n + 1),
    ("B", "B", lambda n: 2 * n),
    ("C", "C", lambda n: 2 * n + 1),
    ("H", "H", lambda n: n // 2),
    ("double", r"\n. n (\m. S (S m)) #0", lambda n: 2 * n),
)

# Input values per function and op kind (6 x 9 x 2 = 108 ops a cycle);
# the seed jitters each by up to +-4% and shuffles the cycle.
N_SCHEDULE = (2, 3, 4, 6, 8, 10, 12, 16, 24)


def prelude_term(k, source: str):
    defs = k.combinators.prelude_definitions(k.combinators.PRELUDE_SOURCE)
    return k.parse_term(k.combinators.resolve_names(source, defs))


def jitter(rng: random.Random, n: int) -> int:
    return max(1, round(n * (1 + rng.uniform(-0.04, 0.04))))


def build(k, seed: int) -> Workload:
    rng = random.Random(f"compiled_fn:{seed}")
    functions = [(name, prelude_term(k, src), f) for name, src, f in FUNCTIONS]
    compiled = {name: k.compile_function(t) for name, t, _ in functions}
    ops: list[Op] = []
    for name, term, f in functions:
        process = compiled[name]
        for n in N_SCHEDULE:
            ops.append(run_op(k, name, process, jitter(rng, n), f))
            ops.append(decode_op(k, name, term, jitter(rng, n), f))
    rng.shuffle(ops)

    def harvest() -> dict:
        small = [(name, t, n) for name, t, _ in functions for n in (3, 9, 16)]
        return {
            "contexts": [k.ExecutionContext(compiled[name], bits_of(n), "")
                         for name, _, n in small],
            "functions": [t for _, t, _ in functions],
            "numerals": [k.App(t, k.church_numeral(n)) for _, t, n in small],
        }

    return Workload("compiled_fn", ops, harvest)


def run_op(k, name, process, n, f) -> Op:
    context = k.ExecutionContext(process, bits_of(n), "")
    want = bits_of(f(n))

    def call(tr) -> Outcome:
        with tr.span("machine.run"):
            result = k.run(context)
        record = f"run {name} {n} {result.outcome} {result.final.output} {result.steps}"
        error = None
        if not result.terminated:
            error = f"{result.outcome}"
        elif result.final.input != "" or result.final.output != want:
            error = f"output {result.final.output!r} != {want!r}"
        return Outcome(record, error, steps=result.steps)

    return Op("run", call)


def decode_op(k, name, term, n, f) -> Op:
    numeral = k.App(term, k.church_numeral(n))
    want = f(n)

    def call(tr) -> Outcome:
        with tr.span("combinators.decode_numeral"):
            value = k.decode_numeral(numeral)
        error = None if value == want else f"decoded {value} != {want}"
        return Outcome(f"decode {name} {n} {value}", error)

    return Op("decode", call)

