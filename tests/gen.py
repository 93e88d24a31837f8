"""Random generators for terms, stacks, processes, and execution contexts,
and two readings of the execution rules written apart from the machine.

One seeded-random generator serves both the fixed-count randomized
acceptance checks and (wrapped in a composite) the hypothesis property
tests, so shapes stay consistent across the suite.
"""

from __future__ import annotations

import functools
import random
import re

import hypothesis.strategies as st

from kamio.syntax import (
    Abs, App, CALLCC, ClosednessError, EMPTY, END, Kont, Pair, READ, Stack, Term, TOP,
    Var, WRITE0, WRITE1, church_numeral, replace_at, stack_of, subterms,
)
from kamio.machine import Action, ExecutionContext, eval_step, lts_step

NAMES = ("a", "b", "c", "f", "g", "x", "y", "z")
_SPARE_NAMES = ("u", "v", "w")  # binder names random_term never uses

_LEAF_CONSTANTS = (CALLCC, READ, WRITE0, WRITE1, END)


def random_term(rng: random.Random, size: int, bound: tuple[str, ...] = (),
                effects: bool = True, kont: bool = True) -> Term:
    """A term of roughly `size` nodes with free variables drawn from `bound`."""
    if size <= 1:
        choices = ["const", "abs_leaf"]
        if bound:
            choices += ["var", "var", "var"]
        pick = rng.choice(choices)
        if pick == "var":
            return Var(rng.choice(bound))
        if pick == "abs_leaf":
            name = rng.choice(NAMES)
            return Abs(name, Var(name))
        constants = list(_LEAF_CONSTANTS if effects else (CALLCC,))
        constants.append(church_numeral(rng.randrange(3)))
        return rng.choice(constants)
    roll = rng.random()
    if kont and roll < 0.08:
        entries = [random_term(rng, rng.randrange(1, max(2, size // 2)), (),
                               effects, kont=False)
                   for _ in range(rng.randrange(0, 3))]
        return Kont(stack_of(*entries))
    if roll < 0.45:
        name = rng.choice(NAMES)
        return Abs(name, random_term(rng, size - 1, bound + (name,), effects, kont))
    left = rng.randrange(1, size)
    return App(random_term(rng, left, bound, effects, kont),
               random_term(rng, size - left, bound, effects, kont))


_BINDERS = ("x", "y", "z", "w", "u", "v")  # a binder is named by its depth


@functools.cache
def all_terms(size: int, bound: tuple[str, ...] = ()) -> tuple[Term, ...]:
    """Every term of exactly `size` nodes, a variable or a constant
    counting one, whose free variables are among `bound`: the five
    constants, and each binder named by how many binders it is under.
    Closed terms number 5, 6, 32, 104 and 498 at sizes 1 to 5."""
    if size == 1:
        return (*[Var(name) for name in bound], *_LEAF_CONSTANTS)
    name = _BINDERS[len(bound)]
    terms = [Abs(name, body) for body in all_terms(size - 1, bound + (name,))]
    for left in range(1, size - 1):
        terms += [App(fun, arg) for fun in all_terms(left, bound)
                  for arg in all_terms(size - 1 - left, bound)]
    return tuple(terms)


def random_stack(rng: random.Random, max_entries: int = 3,
                 effects: bool = True) -> Stack:
    entries = [random_term(rng, rng.randrange(1, 6), (), effects)
               for _ in range(rng.randrange(0, max_entries + 1))]
    return stack_of(*entries)


def random_process(rng: random.Random, size: int = 12, effects: bool = True,
                   allow_top: bool = False):
    if allow_top and rng.random() < 0.05:
        return TOP
    return Pair(random_term(rng, size, (), effects), random_stack(rng, effects=effects))


def alpha_rename(rng: random.Random, x):
    """A copy of x (a term, stack or process) with every binder renamed at
    random.  A new name may shadow an outer binder but never captures a
    free variable, so the copy is alpha-equivalent to x."""
    if isinstance(x, Stack):
        return stack_of(*(_rename(rng, entry, {}) for entry in x))
    if isinstance(x, Pair):
        return Pair(_rename(rng, x.term, {}), alpha_rename(rng, x.stack))
    return x if x is TOP else _rename(rng, x, {})


def _rename(rng: random.Random, t: Term, env: dict[str, str]) -> Term:
    cls = t.__class__
    if cls is Var:
        return Var(env.get(t.name, t.name))
    if cls is App:
        return App(_rename(rng, t.fun, env), _rename(rng, t.arg, env))
    if cls is Abs:
        taken = {env.get(n, n) for n in t.body.fvs if n != t.param}
        name = rng.choice([n for n in NAMES + _SPARE_NAMES if n not in taken])
        return Abs(name, _rename(rng, t.body, {**env, t.param: name}))
    if cls is Kont:
        return Kont(alpha_rename(rng, t.stack))
    return t


def mutate(rng: random.Random, x):
    """x with one subterm, chosen at random, replaced by a small term; x
    itself if it has no subterm."""
    spots = list(subterms(x))
    if not spots:
        return x
    path, _ = rng.choice(spots)
    name = rng.choice(NAMES)
    new = rng.choice((Var(name), Abs(name, Var(rng.choice(NAMES))), CALLCC, END,
                      church_numeral(rng.randrange(3))))
    try:
        return replace_at(x, path, new)
    except ClosednessError:  # a free variable cannot enter a stack or a process head
        return replace_at(x, path, Abs(name, Var(name)))


def random_script_pair(rng: random.Random, size: int = 8):
    """Two read/write/end programs p and q with shared subterms that differ
    at one leaf.  Node i of a program is a constant applied to nodes built
    before it, so a node used twice sits at different depths; the program
    is the last node.  q is p with one node's constant replaced, at every
    place that node is used."""
    nodes: list[tuple] = [(END,)]
    for _ in range(size):
        head = rng.choice((READ, WRITE0, WRITE1))
        arity = 3 if head is READ else 1
        nodes.append((head,) + tuple(rng.randrange(len(nodes)) for _ in range(arity)))
    changed = rng.randrange(len(nodes))
    old = nodes[changed][0]
    new = rng.choice([c for c in (READ, WRITE0, WRITE1, END, CALLCC) if c is not old])

    def program(swap: bool):
        terms: list[Term] = []
        for i, (head, *children) in enumerate(nodes):
            t = new if swap and i == changed else head
            for child in children:
                t = App(t, terms[child])
            terms.append(t)
        return Pair(terms[-1], EMPTY)

    return program(False), program(True)


def random_silent_loop(rng: random.Random):
    """A process whose silent chain runs into a cycle: `W W` with
    `W = \\x. I (... (I (x x)))` (up to four identities) on a random stack,
    behind up to three lambdas that first pop junk entries."""
    x = rng.choice(NAMES)
    body: Term = App(Var(x), Var(x))
    for _ in range(rng.randrange(5)):
        y = rng.choice(NAMES)
        body = App(Abs(y, Var(y)), body)
    loop: Term = App(Abs(x, body), Abs(x, body))
    stack = random_stack(rng)
    for _ in range(rng.randrange(4)):
        loop = Abs(rng.choice(NAMES), loop)
        stack = stack.push(random_term(rng, rng.randrange(1, 4)))
    return Pair(loop, stack)


# Parser input vocabulary: every punctuation mark and reserved word, names,
# numerals, binders (reserved ones too), comments (one holding characters
# rejected outside a comment), a line break, a tab and a carriage return;
# and, drawn one time in 50, characters the grammar rejects: a lone ':'
# and '-', '$', and a non-ASCII letter and digit.
_TOKENS = ("(", ")", "(", ")", "kont{", "kont", "{", "}", "::", "::", "*", "TOP", "nil", "nil",
           "#", "#2", "7", "\\", ".", "\\x.", "\\y.", "\\nil.", "\\end.", "\\TOP.",
           "x", "y", "f", "end", "cc", "read", "write0", "write1", "-- note\n", "-- $ \u00e9\n",
           "\n", "\t", "\r")
_REJECTED = (":", "-", "$", "\u00e9", "\u0663")
_TOKEN_RE = re.compile(r"::|kont\{|\\\w+\.|\w+|\S")


def printed_tokens(rng: random.Random) -> list[str]:
    """The tokens of a printed random term, stack or process."""
    value = rng.choice((random_term(rng, rng.randrange(1, 10), ("x", "y")), random_stack(rng),
                        random_process(rng, rng.randrange(1, 10), allow_top=True)))
    return _TOKEN_RE.findall(str(value))


def _random_token(rng: random.Random) -> str:
    return rng.choice(_REJECTED if rng.random() < 0.02 else _TOKENS)


def random_text(rng: random.Random, printed: list[list[str]], max_tokens: int = 14) -> str:
    """Parser input near the grammar: half the time a string of random
    tokens, else one of the `printed` token lists with up to two of its
    tokens deleted, replaced, or preceded by a random one."""
    if rng.random() < 0.5:
        return " ".join(_random_token(rng) for _ in range(rng.randrange(max_tokens + 1)))
    tokens = list(rng.choice(printed))
    for _ in range(rng.randrange(3)):
        i = rng.randrange(len(tokens) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            tokens[i:i + 1] = []
        elif edit == 1:
            tokens[i:i + 1] = [_random_token(rng)]
        else:
            tokens.insert(i, _random_token(rng))
    return " ".join(tokens)


def random_bits(rng: random.Random, max_len: int = 4) -> str:
    return "".join(rng.choice("01") for _ in range(rng.randrange(0, max_len + 1)))


def random_context(rng: random.Random, size: int = 12) -> ExecutionContext:
    return ExecutionContext(random_process(rng, size, allow_top=True),
                            random_bits(rng), random_bits(rng))


def assert_no_mark(s) -> None:
    """Closure stack s, as `machine._iterate` returns it, is a chain of
    (closure, rest) cells over a `Stack`: it holds none of the marks the
    loop keeps while it evaluates a thunk."""
    while s.__class__ is tuple:
        closure, s = s
        assert closure.__class__ is tuple and len(closure) == 2, closure
    assert s.__class__ is Stack, s


def same_names(x, y) -> bool:
    """x and y (terms, stacks or processes) are equal name for name: the
    same node classes, binder and variable names, constants and stack
    entries, `Kont` stacks compared the same way.  It is at least as
    strict as equal `pretty` output and stops at the first difference."""
    work = [(x, y)]
    while work:
        a, b = work.pop()
        if a is b:
            continue
        cls = type(a)
        if cls is not type(b):
            return False
        if cls is Var:
            if a.name != b.name:
                return False
        elif cls is Abs:
            if a.param != b.param:
                return False
            work.append((a.body, b.body))
        elif cls is App:
            work += ((a.arg, b.arg), (a.fun, b.fun))
        elif cls is Kont:
            work.append((a.stack, b.stack))
        elif cls is Stack:
            if len(a) != len(b):
                return False
            work += zip(a, b)
        elif cls is Pair:
            work += ((a.stack, b.stack), (a.term, b.term))
        else:  # a Const other than b, or TOP against another TOP
            return False
    return True


def matching_clauses(c: ExecutionContext) -> list[Action]:
    """The labels of the seven execution clauses whose side conditions
    hold on c, each clause tested on its own, for overlap checking."""
    matched = []
    p = c.process
    if not isinstance(p, Pair):
        return matched
    t, pi = p.term, p.stack
    if eval_step(p) is not None:
        matched.append(Action.TAU)
    if t is READ and len(pi) >= 3:
        if c.input.startswith("0"):
            matched.append(Action.R0)
        if c.input.startswith("1"):
            matched.append(Action.R1)
        if c.input == "":
            matched.append(Action.REPS)
    if t is WRITE0 and len(pi) >= 1:
        matched.append(Action.W0)
    if t is WRITE1 and len(pi) >= 1:
        matched.append(Action.W1)
    if t is END:
        matched.append(Action.E)
    return matched


def lts_resolved_labels(process, input_bits: str, budget: int) -> list[Action]:
    """The visible labels of following `lts_step` from process for up to
    budget steps, each read resolved by the next bit of input_bits."""
    labels = []
    current, remaining = process, input_bits
    for _ in range(budget):
        transitions = dict(lts_step(current))
        if not transitions:
            break
        if Action.TAU in transitions:
            current = transitions[Action.TAU]
            continue
        if Action.R0 in transitions:
            if remaining == "":
                label = Action.REPS
            elif remaining[0] == "0":
                label, remaining = Action.R0, remaining[1:]
            else:
                label, remaining = Action.R1, remaining[1:]
        else:
            [label] = transitions
        labels.append(label)
        current = transitions[label]
        if current is TOP:
            break
    return labels


@st.composite
def closed_terms(draw, max_size: int = 20, effects: bool = True) -> Term:
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_term(rng, draw(st.integers(1, max_size)), (), effects)


@st.composite
def open_terms(draw, max_size: int = 16) -> Term:
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    bound = tuple(draw(st.sets(st.sampled_from(NAMES), max_size=3)))
    return random_term(rng, draw(st.integers(1, max_size)), bound)


@st.composite
def stacks(draw, max_entries: int = 4) -> Stack:
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_stack(rng, max_entries)


@st.composite
def processes(draw, max_size: int = 16):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_process(rng, draw(st.integers(1, max_size)), allow_top=True)


@st.composite
def silent_loops(draw):
    return random_silent_loop(random.Random(draw(st.integers(0, 2**32 - 1))))


@st.composite
def contexts(draw, max_size: int = 14) -> ExecutionContext:
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_context(rng, draw(st.integers(1, max_size)))


@st.composite
def script_pairs(draw, max_size: int = 10):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_script_pair(rng, draw(st.integers(1, max_size)))
