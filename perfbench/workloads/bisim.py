"""bisim: bounded weak bisimilarity on three kinds of seeded pair.

- same: functions built differently that behave alike, compiled; they
  read forever, so the check ends unknown at the depth.  Expensive.
- beta: a random closed I/O program against itself with one planted
  beta-redex contracted.  Verified expected, then TOP-equivalence on a
  few inputs, also verified.
- differ: every pair of compiled functions that differ, each in a
  seeded orientation.  Refuted expected; the witness is replayed through
  `observable` and checked against the traces the Python functions
  predict.

Term hashing and alpha-equality (the `seen` sets) carry the load.
"""

from __future__ import annotations

import random

from harness import Op, Outcome, Workload, bits_of
from workloads.compiled_fn import FUNCTIONS, prelude_term

# (left, right, depths): double against B carries the tail; with 40 beta
# and 56 differ ops, 111 ops a cycle, and the depth-4 block of double
# against B holds p90.
SAME = (
    (r"\n. n (\m. S (S m)) #0", "B", (4,) * 11 + (5, 6)),
    (r"\x. x", r"\n. n S #0", (4,)),
    ("B", r"\n. \f. n (\y. f (f y))", (4,)),
)
BETA_PAIRS = 40
DIFFER_DEPTHS = (4, 5, 6, 7)


def build(k, seed: int) -> Workload:
    rng = random.Random(f"bisim:{seed}")
    ops: list[Op] = []
    pairs = []  # (p, q, depth) for the traced replays, in op order
    for left, right, depths in SAME:
        a = k.compile_function(prelude_term(k, left))
        b = k.compile_function(prelude_term(k, right))
        for depth in depths:
            p, q = (a, b) if rng.random() < 0.5 else (b, a)
            ops.append(same_op(k, p, q, depth))
            pairs.append((p, q, depth))
    contexts = []
    for i in range(BETA_PAIRS):
        p, q, io_depth = beta_pair(k, rng)
        inputs = ["".join(rng.choice("01") for _ in range(rng.randrange(io_depth + 1)))
                  for _ in range(2)]
        ops.append(beta_op(k, i, p, q, io_depth + 2, inputs))
        pairs.append((p, q, io_depth + 2))
        contexts += [(k.ExecutionContext(p, bits, ""), k.ExecutionContext(q, bits, ""))
                     for bits in inputs]
    compiled = [(name, k.compile_function(prelude_term(k, src)), f)
                for name, src, f in FUNCTIONS]
    for i, first in enumerate(compiled):
        for second in compiled[i + 1:]:
            if {first[0], second[0]} != {"B", "double"}:
                for depth in DIFFER_DEPTHS:
                    x, y = (first, second) if rng.random() < 0.5 else (second, first)
                    ops.append(differ_op(k, x, y, depth))
                    pairs.append((x[1], y[1], depth))
    rng.shuffle(ops)

    def harvest() -> dict:
        return {
            "contexts": [c for pair in contexts for c in pair]
                        + [k.ExecutionContext(p, "11", "") for p, _, _ in pairs[11:15]],
            "bisim_pairs": [x for i, x in enumerate(pairs) if i == 11 or x[2] <= 4],
            "top_pairs": contexts,
            "terms": [x.term for p, q, _ in pairs[::4] for x in (p, q)],
        }

    return Workload("bisim", ops, harvest)


def same_op(k, p, q, depth) -> Op:
    def call(tr) -> Outcome:
        with tr.span("equivalence.weak_bisim"):
            verdict = k.weak_bisim(p, q, depth)
        ok = verdict.is_unknown and verdict.reason == "depth"
        return Outcome(f"same {depth} {verdict.status} {verdict.reason}",
                       None if ok else f"verdict {verdict.status} {verdict.reason}",
                       decided=0 if verdict.is_unknown else 1)

    return Op("same", call)


def beta_op(k, i, p, q, depth, inputs) -> Op:
    def call(tr) -> Outcome:
        with tr.span("equivalence.weak_bisim"):
            verdict = k.weak_bisim(p, q, depth)
        statuses = [verdict.status]
        for bits in inputs:
            with tr.span("equivalence.top_equiv"):
                top = k.top_equiv(k.ExecutionContext(p, bits, ""), k.ExecutionContext(q, bits, ""))
            statuses.append(top.status)
        decided = sum(s != "unknown" for s in statuses)
        ok = all(s == "verified" for s in statuses)
        return Outcome(f"beta {i} {' '.join(statuses)}", None if ok else f"statuses {statuses}",
                       checks=len(statuses), decided=decided)

    return Op("beta", call)


def differ_op(k, x, y, depth) -> Op:
    (name1, p, f1), (name2, q, f2) = x, y

    def call(tr) -> Outcome:
        with tr.span("equivalence.weak_bisim"):
            verdict = k.weak_bisim(p, q, depth)
        if not verdict.is_refuted:
            return Outcome(f"differ {name1} {name2} {verdict.status}",
                           f"verdict {verdict.status}", decided=int(not verdict.is_unknown))
        labels = [a.value for a in verdict.witness]
        error = None
        if not predicted_by(labels, f1, f2):
            error = f"witness {labels} is not a prefix of exactly one predicted trace"
        else:
            with tr.span("equivalence.observable"):
                replayed = replay(k, p, q, verdict.witness)
            if not replayed:
                error = f"witness {labels} does not replay"
        return Outcome(f"differ {name1} {name2} {depth} refuted {' '.join(labels)}", error)

    return Op("differ", call)


def expected_trace(f, bits: str) -> list[str]:
    """Visible trace of compile_function(t) on `bits` when t computes f:
    the reads MSB first, the empty-input read, then bin(f(n)) written
    LSB first (writes prepend), then end."""
    out = bits_of(f(int(bits or "0", 2)))
    return (["r0" if b == "0" else "r1" for b in bits] + ["reps"]
            + ["w0" if b == "0" else "w1" for b in reversed(out)] + ["e"])


def predicted_by(labels: list[str], f1, f2) -> bool:
    if "reps" not in labels:
        return False
    bits = "".join("0" if a == "r0" else "1" for a in labels[:labels.index("reps")])
    prefix1 = expected_trace(f1, bits)[:len(labels)] == labels
    prefix2 = expected_trace(f2, bits)[:len(labels)] == labels
    return prefix1 != prefix2


def replay(k, p, q, witness) -> bool:
    """Both sides offer every label but the last; exactly one offers the last."""
    a, b = p, q
    for i, label in enumerate(witness):
        oa, ob = k.observable(a), k.observable(b)
        has_a = oa.is_menu and label in oa.entries
        has_b = ob.is_menu and label in ob.entries
        if i == len(witness) - 1:
            return has_a != has_b
        if not (has_a and has_b):
            return False
        a, b = oa.entries[label], ob.entries[label]
    return False


# ---------------------------------------------------------------------------
# Random I/O programs with planted beta-redexes


def beta_pair(k, rng: random.Random):
    """A closed process p, and q with exactly one of p's planted redexes
    contracted by hand, so q is bisimilar to p by construction."""
    tree = program(rng, rng.randrange(2, 5))
    wrappers = count_wrappers(tree)
    if wrappers == 0:
        tree = ("id", tree)
        wrappers = 1
    target = rng.randrange(wrappers)
    p = k.Pair(render(k, tree, None), k.EMPTY)
    q = k.Pair(render(k, tree, [target]), k.EMPTY)
    return p, q, io_depth(tree)


def program(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.15:
        node = ("end",)
    else:
        pick = rng.random()
        if pick < 0.35:
            node = ("w0", program(rng, depth - 1))
        elif pick < 0.7:
            node = ("w1", program(rng, depth - 1))
        else:
            node = ("read",) + tuple(program(rng, depth - 1) for _ in range(3))
    if rng.random() < 0.4:
        node = (rng.choice(("id", "const", "cps")), node)
    return node


def count_wrappers(node) -> int:
    own = 1 if node[0] in ("id", "const", "cps") else 0
    return own + sum(count_wrappers(c) for c in node[1:])


def io_depth(node) -> int:
    children = [io_depth(c) for c in node[1:]]
    step = 0 if node[0] in ("id", "const", "cps") else 1
    return step + max(children, default=0)


def render(k, node, target):
    """The term for `node`; the wrapper numbered target[0] (preorder) is
    rendered with its redex contracted.  `target` is a one-element list
    counting down as wrappers are passed."""
    kind = node[0]
    I = k.Abs("z", k.Var("z"))
    if kind == "end":
        return k.END
    if kind in ("w0", "w1"):
        return k.App(k.WRITE0 if kind == "w0" else k.WRITE1, render(k, node[1], target))
    if kind == "read":
        term = k.READ
        for child in node[1:]:
            term = k.App(term, render(k, child, target))
        return term
    contract = target is not None and target[0] == 0
    if target is not None:
        target[0] -= 1
    child = render(k, node[1], target)
    if kind == "id":
        return child if contract else k.App(k.Abs("v", k.Var("v")), child)
    if kind == "const":
        if contract:
            return k.App(k.Abs("w", child), I)
        return k.App(k.App(k.Abs("v", k.Abs("w", k.Var("v"))), child), I)
    # cps: (\c. c child) (\z. z), contracted to (\z. z) child
    if contract:
        return k.App(I, child)
    return k.App(k.Abs("c", k.App(k.Var("c"), child)), I)
