"""Earlier versions of rewritten code, kept unchanged as differential
oracles.

The substitution machine below (`eval_step`, `exec_step_labeled` and
`lts_step`, the paper's own machine on processes `t * π`) is the one
ground truth for the closure machine: for `kamio.machine._iterate` and
`_read_back`, for `run`, `lts_step` and `settled_moves`.  The tests walk
a process once with it and read each stop of the closure loop off that
walk; no earlier closure loop is kept beside it.

- `eval_step` as it stood when it was the substitution machine, with
  its own push, pop, save and restore rules on processes and a pop that
  copies the body through `substitute`; its docstring is kept too.
  Oracle for `kamio.machine.eval_step`, now `lts_step`'s silent move,
  one step of the closure loop read back.  Every oracle here that takes a silent step takes it with
  this copy, never with the code under test.
- The execution relation as it stood before it was rewritten on top of
  `lts_step`: hand-written read/write/end rules on the substitution
  machine, and a `run` that builds an `ExecutionContext` on every step.
  Oracle for `kamio.machine.run`, the closure machine, at every step
  count, and for `kamio.machine.exec_step_labeled`, now read off
  `run(c, 1)`.  `lts_step` takes
  each transition from it; oracle for `kamio.machine.lts_step`.  One
  edit: the loop that was `run` is `run_trace`, which returns the trace
  it keeps step by step, and `run` builds the record from that trace:
  its length and its visible entries, the fields `RunResult` now has.
- `trace_conforms` as it stood when it tested the read_all_then_write
  discipline clause by clause.  Oracle for
  `kamio.realizability.trace_conforms`.
- `_conforms`, a trace pole's check of one run, as it stood when it
  built the reads, the writes and the whole expected trace for every
  input.  Oracle for `kamio.realizability._conforms`, which compares
  the trace with the discipline position by position.
- The recursive printer.  Oracle for `kamio.syntax.pretty`.
- The recursive-descent parser `_Parser`, with `parse_term`,
  `parse_stack` and `parse_process` over it, and `parse_term_or_process`,
  the rule `kamio parse` used to pick between two parses: a process,
  else a term, else whichever error got further into the input.
  Oracles for `kamio.syntax._parse` and its entry points.  `_Parser`
  reads the tokens of its own `_tokenize`, the tokenizer as it stood
  when each token carried its line and column, so the error positions
  of `kamio.syntax`, worked out from an offset, are compared too.  One
  edit: `_tokenize` keeps its last few results and returns a tuple, so
  the four entry points, called one after another on one text, tokenize
  it once.
- The recursive alpha-equivalence `_alpha_eq` and alpha-invariant hash
  `_alpha_hash`, and `equal` and `alpha_hash`, which extend them to
  stacks and processes as `Stack` and `Pair` did.  Oracle for `==` and
  `hash` on terms, stacks and processes.  Two edits keep the oracle
  apart from the code under test: `_alpha_hash` no longer reads or
  writes a per-node hash cache (terms now carry their hash from
  construction), and a continuation's saved stack is compared and hashed
  with `stack_eq` and `stack_hash`, not with `Stack.__eq__` and
  `Stack.__hash__`.
- `observable` and the finite pole's membership loop (`finite_member`)
  as each followed the silent chain by hand, with its own seen-set,
  cycle rule and fuel count.  Oracles for `kamio.equivalence.observable`,
  now `kamio.machine.settled_moves` with a `successor` per move, and for
  `kamio.realizability.FinitePole.member`, which follows
  `kamio.machine.settle`.
- `settle` as it stood when it followed `eval_step` on every chain, with
  a seen-set of the processes met.  Oracle for `kamio.machine.settle`,
  which is that exact loop again after a time when it settled a chain
  with no targets on closures.
- The recursive `weak_bisim`.  Oracle for `kamio.equivalence.weak_bisim`.
  One edit: `visited` maps each pair to the depth left when it was
  explored, and a pair met again with more depth than that is explored
  again.  `depth_aware=False` restores the old rule (a pair is explored
  once, whatever the depth left), under which a pair first cut off at
  low depth is later taken as matched.  It settles processes with the
  `observable` kept here.
"""

from __future__ import annotations

import functools
import re
from typing import Container

from kamio.equivalence import DEFAULT_DEPTH, DEFAULT_OBS_FUEL, Observable
from kamio.machine import DEFAULT_FUEL, Action, ExecutionContext, RunResult
from kamio.realizability import COPY, READ_ALL_THEN_WRITE
from kamio.syntax import (
    CALLCC, END, READ, RESERVED, TOP, WRITE0, WRITE1, Abs, App, Const, Kont, Pair, ParseError,
    Process, Stack, Term, Var, _ATOM_STARTERS, _KEYWORD_TERMS, church_numeral, stack_of,
    substitute,
)
from kamio.verdict import Verdict


def eval_step(p: Process) -> Process | None:
    """The unique effect-free successor of p, or None if no rule applies.

    Instruction constants in head position never step here; they only
    step in the execution relation.  This is the substitution machine: a
    pop copies the body through `substitute`.  `lts_step` takes its
    silent transition from it, and `settle` follows it only where every
    intermediate process is needed: to meet a target, or to tell a cycle
    from spent fuel.  `run` does not use it.
    """
    if p.__class__ is not Pair:
        return None
    t, pi = p.term, p.stack
    cls = t.__class__
    if cls is App:
        return Pair(t.fun, Stack(t.arg, pi))
    head = pi.head
    if head is None:
        return None
    if cls is Abs:
        return Pair(substitute(t.body, t.param, head), pi.tail)
    if t is CALLCC:
        rest = pi.tail
        return Pair(head, Stack(Kont(rest), rest))
    if cls is Kont:
        return Pair(head, t.stack)
    return None


def exec_step_labeled(c: ExecutionContext) -> tuple[Action, ExecutionContext] | None:
    """One execution step together with its action, or None if stuck."""
    p = c.process
    if p is TOP or not isinstance(p, Pair):
        return None
    t, pi = p.term, p.stack
    if t is END:
        return Action.E, ExecutionContext(TOP, c.input, c.output)
    if t is READ:
        if len(pi) < 3:
            return None
        first = pi.head
        rest1 = pi.tail
        second = rest1.head
        rest2 = rest1.tail
        third = rest2.head
        tail = rest2.tail
        if c.input == "":
            return Action.REPS, ExecutionContext(Pair(third, tail), "", c.output)
        if c.input[0] == "0":
            return Action.R0, ExecutionContext(Pair(first, tail), c.input[1:], c.output)
        return Action.R1, ExecutionContext(Pair(second, tail), c.input[1:], c.output)
    if t is WRITE0:
        if pi.is_empty:
            return None
        return Action.W0, ExecutionContext(Pair(pi.head, pi.tail), c.input, "0" + c.output)
    if t is WRITE1:
        if pi.is_empty:
            return None
        return Action.W1, ExecutionContext(Pair(pi.head, pi.tail), c.input, "1" + c.output)
    q = eval_step(p)
    if q is None:
        return None
    return Action.TAU, ExecutionContext(q, c.input, c.output)


def run_trace(c: ExecutionContext,
              fuel: int = DEFAULT_FUEL) -> tuple[str, ExecutionContext, tuple[Action, ...]]:
    """Iterate the execution relation at most `fuel` steps; return the
    outcome, the final context and the trace, one action per step.

    Stops early at TOP ("terminated") or when no step applies ("stuck").
    """
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    trace: list[Action] = []
    for _ in range(fuel):
        if c.process is TOP:
            return "terminated", c, tuple(trace)
        step = exec_step_labeled(c)
        if step is None:
            return "stuck", c, tuple(trace)
        action, c = step
        trace.append(action)
    if c.process is TOP:
        return "terminated", c, tuple(trace)
    if exec_step_labeled(c) is None:
        return "stuck", c, tuple(trace)
    return "fuel", c, tuple(trace)


def run(c: ExecutionContext, fuel: int = DEFAULT_FUEL) -> RunResult:
    """`run_trace` as a record: the trace's length is the step count, and
    its non-TAU entries, with their indices, are the visible steps."""
    outcome, c, trace = run_trace(c, fuel)
    visible = tuple((i, a) for i, a in enumerate(trace) if a is not Action.TAU)
    return RunResult(outcome, c, len(trace), visible)


def lts_step(p: Process) -> tuple[tuple[Action, Process], ...]:
    """All transitions of p, each from `exec_step_labeled`: a read head's
    three branches, on input 0, 1 and none, if all three exist, else the
    one step, if any, on no input."""
    bits = ("0", "1", "") if p.__class__ is Pair and p.term is READ else ("",)
    steps = [exec_step_labeled(ExecutionContext(p, bit)) for bit in bits]
    return () if None in steps else tuple((action, c.process) for action, c in steps)


def _read_label(bit: str) -> Action:
    return Action.R0 if bit == "0" else Action.R1


def trace_conforms(spec: str, p: Process, input_bits: str, fuel: int) -> Verdict:
    """Does running p on input_bits produce the visible trace the
    discipline requires?  Silent steps are unconstrained throughout.

    copy: strictly alternate reading a bit and writing that same bit,
    then observe the empty input and terminate.

    read_all_then_write: all reads (the input bits, then at least one
    empty-input probe) strictly before all writes, terminal output equal
    to the input string, then terminate.
    """
    result = run(ExecutionContext(p, input_bits, ""), fuel)
    if result.outcome == "fuel":
        return Verdict.unknown("fuel", witness=input_bits)
    visible = result.visible_trace()
    if result.outcome == "stuck":
        return Verdict.refuted((input_bits, visible))
    if spec == COPY:
        expected: list[Action] = []
        for bit in input_bits:
            expected.append(_read_label(bit))
            expected.append(Action.W0 if bit == "0" else Action.W1)
        expected.append(Action.REPS)
        expected.append(Action.E)
        ok = visible == tuple(expected)
    elif spec == READ_ALL_THEN_WRITE:
        reads = [a for a in visible if a in (Action.R0, Action.R1, Action.REPS)]
        boundary = len(reads)
        read_bits = "".join("0" if a is Action.R0 else "1"
                            for a in reads if a is not Action.REPS)
        ok = (visible[:boundary] == tuple(reads)          # no read after a write
              and read_bits == input_bits                  # whole input consumed
              and Action.REPS in reads and reads[-1] is Action.REPS
              and visible[-1] is Action.E
              and all(a in (Action.W0, Action.W1) for a in visible[boundary:-1])
              and result.final.output == input_bits)
    else:
        raise ValueError(f"unknown trace discipline {spec!r}")
    return Verdict.verified() if ok else Verdict.refuted((input_bits, visible))


def _conforms(spec: str, input_bits: str, outcome: str, visible: tuple[Action, ...]) -> Verdict:
    """`trace_conforms`'s check of a run on input_bits that ended with
    `outcome` after the visible actions `visible`."""
    if outcome == "fuel":
        return Verdict.unknown("fuel", witness=input_bits)
    if outcome == "stuck":
        return Verdict.refuted((input_bits, visible))
    reads = [Action.R0 if bit == "0" else Action.R1 for bit in input_bits]
    writes = [Action.W0 if bit == "0" else Action.W1 for bit in input_bits]
    if spec == COPY:
        expected = [a for pair in zip(reads, writes) for a in pair] + [Action.REPS]
    else:
        probes = max(1, len(visible) - 2 * len(input_bits) - 1)
        expected = reads + [Action.REPS] * probes + writes[::-1]
    ok = visible == tuple(expected + [Action.E])
    return Verdict.verified() if ok else Verdict.refuted((input_bits, visible))


# ---------------------------------------------------------------------------
# Printer


def pretty(x: Term | Stack | Process) -> str:
    if isinstance(x, Term):
        return _pretty_term(x)
    if isinstance(x, Stack):
        return _pretty_stack(x)
    if x is TOP:
        return "TOP"
    if isinstance(x, Pair):
        return f"{_pretty_term(x.term)} * {_pretty_stack(x.stack)}"
    raise TypeError(f"cannot print {x!r}")


def _pretty_term(t: Term) -> str:
    cls = t.__class__
    if cls is Abs:
        return f"\\{t.param}. {_pretty_term(t.body)}"
    if cls is App:
        spine = []
        node = t
        while node.__class__ is App:
            spine.append(node.arg)
            node = node.fun
        spine.append(node)
        spine.reverse()
        return " ".join(_pretty_atom(part) for part in spine)
    return _pretty_atom(t)


def _pretty_atom(t: Term) -> str:
    cls = t.__class__
    if cls is Var:
        return t.name
    if cls is Const:
        return t.kind
    if cls is Kont:
        return "kont{" + _pretty_stack(t.stack) + "}"
    return "(" + _pretty_term(t) + ")"


def _pretty_stack(s: Stack) -> str:
    parts = [_pretty_term(entry) for entry in s]
    parts.append("nil")
    return " :: ".join(parts)


# ---------------------------------------------------------------------------
# Parser (recursive descent)

_TOKEN_RE = re.compile(
    r"(?P<skip>\s+|--[^\n]*)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<nat>[0-9]+)"
    r"|(?P<dcolon>::)"
    r"|(?P<punct>[\\.(){}*#])"
    r"|(?P<bad>.)"
)


def _tokenize(text: str) -> tuple[tuple[str, str, int, int], ...]:
    tokens, error = _scan(text)
    if error is not None:
        raise ParseError(*error)
    return tokens


@functools.lru_cache(maxsize=8)
def _scan(text: str):
    """The tokens of text and None, or None and the arguments of the
    ParseError its first bad character raises: `lru_cache` keeps no
    exception, so an error is cached as its arguments."""
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = m.group()
        col = m.start() - line_start + 1
        if kind == "skip":
            line += value.count("\n")
            if "\n" in value:
                line_start = m.start() + value.rindex("\n") + 1
            continue
        if kind == "bad":
            return None, (f"unexpected character {value!r}", line, col)
        if kind == "dcolon":
            kind, value = "punct", "::"
        tokens.append((kind, value, line, col))
    tokens.append(("eof", "", line, len(text) - line_start + 1))
    return tuple(tokens), None


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, expected: tuple[str, ...] = ()):
        _, value, line, col = self.peek()
        shown = value if value else "end of input"
        raise ParseError(f"{message}, found {shown!r}", line, col, expected)

    def expect_punct(self, value: str):
        kind, text, _, _ = self.peek()
        if kind == "punct" and text == value:
            return self.advance()
        self.error(f"expected {value!r}", (value,))

    def starts_atom(self) -> bool:
        kind, value, _, _ = self.peek()
        if kind == "ident":
            return value not in ("nil", "TOP")
        if kind == "punct":
            return value in ("(", "#")
        return False

    def term(self) -> Term:
        # a lambda chain is read in a loop; parentheses and kont{} still recurse
        binders = []
        kind, value, _, _ = self.peek()
        while kind == "punct" and value == "\\":
            self.advance()
            binders.append(self.binder())
            self.expect_punct(".")
            kind, value, _, _ = self.peek()
        t = self.atom()
        while self.starts_atom():
            t = App(t, self.atom())
        while binders:
            t = Abs(binders.pop(), t)
        return t

    def binder(self) -> str:
        kind, value, line, col = self.peek()
        if kind != "ident":
            self.error("expected a variable name", ("identifier",))
        if value in RESERVED:
            raise ParseError(f"reserved word {value!r} cannot be a variable name",
                             line, col, ("identifier",))
        self.advance()
        return value

    def atom(self) -> Term:
        kind, value, line, col = self.peek()
        if kind == "ident":
            if value in _KEYWORD_TERMS:
                self.advance()
                return _KEYWORD_TERMS[value]
            if value == "kont":
                self.advance()
                self.expect_punct("{")
                stack = self.stack()
                self.expect_punct("}")
                return Kont(stack)
            if value in ("nil", "TOP"):
                raise ParseError(f"reserved word {value!r} is not a term",
                                 line, col, (_ATOM_STARTERS,))
            self.advance()
            return Var(value)
        if kind == "punct" and value == "#":
            self.advance()
            nkind, nvalue, _, _ = self.peek()
            if nkind != "nat":
                self.error("expected a number after '#'", ("natural number",))
            self.advance()
            return church_numeral(int(nvalue))
        if kind == "punct" and value == "(":
            self.advance()
            t = self.term()
            self.expect_punct(")")
            return t
        self.error("expected a term", (_ATOM_STARTERS,))

    def stack(self) -> Stack:
        entries = []
        while True:
            kind, value, _, _ = self.peek()
            if kind == "ident" and value == "nil":
                self.advance()
                return stack_of(*entries)
            entries.append(self.term())
            self.expect_punct("::")

    def process(self) -> Process:
        kind, value, _, _ = self.peek()
        if kind == "ident" and value == "TOP":
            self.advance()
            return TOP
        head = self.term()
        self.expect_punct("*")
        return Pair(head, self.stack())  # Pair rejects a head with free variables

    def finish(self):
        kind, value, line, col = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {value!r}", line, col, ("end of input",))


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.term()
    p.finish()
    return t


def parse_stack(text: str) -> Stack:
    p = _Parser(text)
    s = p.stack()
    p.finish()
    return s


def parse_process(text: str) -> Process:
    p = _Parser(text)
    proc = p.process()
    p.finish()
    return proc


def parse_term_or_process(text: str) -> Term | Process:
    """`kamio parse`'s reading: a process, else a term; when both fail,
    the error that got further into the input, the term's on a tie."""
    try:
        return parse_process(text)
    except ParseError as process_error:
        try:
            return parse_term(text)
        except ParseError as term_error:
            raise (term_error
                   if (term_error.line, term_error.col) >= (process_error.line, process_error.col)
                   else process_error)


# ---------------------------------------------------------------------------
# Alpha-equivalence and hashing


def _alpha_eq(t: Term, u: Term, envt: dict, envu: dict, depth: int) -> bool:
    # envs map a name to the depth of its binder; depth grows in lockstep
    # on both sides, so shadowed names can never collide
    ct = t.__class__
    if ct is not u.__class__:
        return False
    if ct is Var:
        it = envt.get(t.name)
        iu = envu.get(u.name)
        if it is None and iu is None:
            return t.name == u.name
        return it == iu
    if ct is App:
        return (_alpha_eq(t.fun, u.fun, envt, envu, depth)
                and _alpha_eq(t.arg, u.arg, envt, envu, depth))
    if ct is Abs:
        envt2 = dict(envt)
        envt2[t.param] = depth
        envu2 = dict(envu)
        envu2[u.param] = depth
        return _alpha_eq(t.body, u.body, envt2, envu2, depth + 1)
    if ct is Const:
        return t.kind == u.kind
    # Kont: saved stacks contain closed terms, so plain equality applies
    return stack_eq(t.stack, u.stack)


def _alpha_hash(t: Term, env: dict, depth: int) -> int:
    # Bound variables hash by their distance to the binder, so the hash of
    # a closed subterm is context-free.
    ct = t.__class__
    if ct is Var:
        i = env.get(t.name)
        h = hash(("fv", t.name)) if i is None else hash(("bv", depth - i))
    elif ct is App:
        h = hash(("app", _alpha_hash(t.fun, env, depth), _alpha_hash(t.arg, env, depth)))
    elif ct is Abs:
        env2 = dict(env)
        env2[t.param] = depth
        h = hash(("abs", _alpha_hash(t.body, env2, depth + 1)))
    elif ct is Const:
        h = hash(("const", t.kind))
    else:
        h = hash(("kont", stack_hash(t.stack)))
    return h


def term_eq(t: Term, u: Term) -> bool:
    return t is u or _alpha_eq(t, u, {}, {}, 0)


def term_hash(t: Term) -> int:
    return _alpha_hash(t, {}, 0)


def stack_eq(s: Stack, t: Stack) -> bool:
    return len(s) == len(t) and all(term_eq(a, b) for a, b in zip(s, t))


def stack_hash(s: Stack) -> int:
    h = hash("empty-stack")
    for entry in reversed(list(s)):
        h = hash((term_hash(entry), h))
    return h


def equal(x, y) -> bool:
    """Equality of two terms, two stacks or two processes."""
    if isinstance(x, Term):
        return term_eq(x, y)
    if isinstance(x, Stack):
        return stack_eq(x, y)
    if x is TOP or y is TOP:
        return x is y
    return term_eq(x.term, y.term) and stack_eq(x.stack, y.stack)


def alpha_hash(x) -> int:
    """The hash of a term, a stack or a process."""
    if isinstance(x, Term):
        return term_hash(x)
    if isinstance(x, Stack):
        return stack_hash(x)
    if x is TOP:
        return hash("TOP-process")
    return hash((term_hash(x.term), stack_hash(x.stack)))


def observable(p: Process, fuel: int = DEFAULT_OBS_FUEL) -> Observable:
    """Follow the deterministic silent chain from p until it offers
    labeled transitions (menu), stops or provably cycles (silent), or the
    fuel runs out (unknown)."""
    seen: set[Process] = set()
    current = p
    budget = fuel
    while True:
        transitions = lts_step(current)
        if not transitions:
            return Observable("silent")
        if transitions[0][0] is not Action.TAU:
            return Observable("menu", dict(transitions))
        if current in seen:
            return Observable("silent")  # silent cycle: provably diverges
        if budget <= 0:
            return Observable("unknown")
        seen.add(current)
        budget -= 1
        current = transitions[0][1]


def finite_member(seeds: frozenset[Process], p: Process, fuel: int) -> Verdict:
    """Membership in the saturation closure of `seeds`: does the
    effect-free evaluation chain of p reach a seed within fuel?"""
    budget = fuel
    seen: set[Process] = set()
    current = p
    while True:
        if current in seeds:
            return Verdict.verified()
        if current in seen:
            return Verdict.refuted(current)  # evaluation cycles short of any seed
        seen.add(current)
        successor = eval_step(current)
        if successor is None:
            return Verdict.refuted(current)
        if budget <= 0:
            return Verdict.unknown("fuel", witness=current)
        budget -= 1
        current = successor


def settle(p: Process, fuel: int, targets: Container[Process] = ()) -> tuple[str, Process]:
    """Follow `eval_step` from p for at most `fuel` steps; return why it
    stopped and the process it stopped at.  The reason is "stop" (a
    member of `targets`), "stuck" (no silent step applies), "cycle" (a
    process repeats) or "fuel", checked in that order at each process.
    A negative fuel raises ValueError."""
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    seen: set[Process] = set()
    current = p
    while True:
        if targets and current in targets:
            return "stop", current
        successor = eval_step(current)
        if successor is None:
            return "stuck", current
        size = len(seen)
        seen.add(current)  # one hash per step: an unchanged size is a repeat
        if len(seen) == size:
            return "cycle", current
        if fuel <= 0:
            return "fuel", current
        fuel -= 1
        current = successor


_LABEL_ORDER = (Action.R0, Action.R1, Action.REPS, Action.W0, Action.W1, Action.E)


def weak_bisim(p: Process, q: Process, depth: int = DEFAULT_DEPTH,
               fuel: int = DEFAULT_OBS_FUEL, depth_aware: bool = True) -> Verdict:
    """Bounded weak-bisimilarity check.

    Verified means p and q match on all behaviors of at most `depth`
    visible actions (with silent settling bounded by `fuel`).  Refuted
    carries the distinguishing action sequence.  Unknown reports whether
    fuel or depth was exhausted first.
    """
    visited: dict[tuple[Process, Process], int] = {}
    saw_fuel = False
    saw_depth = False

    def check(a: Process, b: Process, remaining: int, prefix: tuple[Action, ...]) -> Verdict | None:
        # None signals "no difference found but exploration was cut short"
        nonlocal saw_fuel, saw_depth
        if a == b or ((a, b) in visited
                      and (not depth_aware or visited[a, b] >= remaining)):
            return Verdict.verified()
        visited[a, b] = remaining
        oa = observable(a, fuel)
        ob = observable(b, fuel)
        if oa.kind == "unknown" or ob.kind == "unknown":
            saw_fuel = True
            return None
        if oa.kind == "silent" and ob.kind == "silent":
            return Verdict.verified()
        if oa.kind != ob.kind:
            menu = oa.entries if oa.is_menu else ob.entries
            label = min(menu, key=_LABEL_ORDER.index)
            return Verdict.refuted(prefix + (label,))
        if set(oa.entries) != set(ob.entries):
            difference = set(oa.entries) ^ set(ob.entries)
            label = min(difference, key=_LABEL_ORDER.index)
            return Verdict.refuted(prefix + (label,))
        if remaining <= 0:
            saw_depth = True
            return None
        incomplete = False
        for label in _LABEL_ORDER:
            if label not in oa.entries:
                continue
            sub = check(oa.entries[label], ob.entries[label], remaining - 1, prefix + (label,))
            if sub is None:
                incomplete = True
            elif sub.is_refuted:
                return sub
        return None if incomplete else Verdict.verified()

    result = check(p, q, depth, ())
    if result is not None:
        return result
    return Verdict.unknown("fuel" if saw_fuel else "depth")
