"""The Krivine machine with bit I/O: evaluation, labeled transitions and
execution.

A process `t * π` steps silently by push (an application pushes its
argument), pop (an abstraction binds the top of the stack to its
parameter), save (`cc` pushes the rest of the stack as a continuation
term, `cc * t·π ≻ t * k_π·π`) and restore (a continuation reinstates
its stack).  The instruction constants in head position step visibly:
`read` continues with its first, second or third argument as the next
input bit is 0, 1 or used up; `write0` and `write1` write a bit and
continue with their argument; `end` discards the stack and terminates
at TOP.

One closure machine loop (Krivine, "A call-by-name lambda-calculus
machine", HOSC 2007), `_iterate`, serves `run`, `lts_step`,
`settled_moves` and the walk over inputs below, whose results the
other steps read.  Its state is a term, an environment and a stack of
closures, so a pop binds a name instead of copying the body, and a
loaded `Pair`'s stack is used as it is.  It holds every rule, each
written once, in place, with no helper call per step: push, pop, save,
restore, read, write and end.  A save pushes `Kont(π)` and goes on with
that same `Stack` π, the rest read back first if it still holds closure
cells, so a continuation is a term here as in the paper, and the saved
stack and the tail are one object.  At an instruction head `run`, which
passes its input, loads only the closure of the branch its next input
bit selects.  Without input the loop stops there and gives back what its
moves are made of, building none: one of four label tuples, the closures
the moves continue with, and the rest of the stack they share, for
`successor` to read back one move at a time.  Looking a variable head up
is not a step (a commutative transition in the sense of Accattoli,
Barenbaum and Mazza, "Distilling abstract machines", ICFP 2014), so
traces and step counts are those of the substitution machine.  The loop
runs over `range(fuel)`, whose index is the step count, so no step tests
the budget, and only the loop says whether a rule applies: where it
spends its fuel, `run` and `settled_moves` ask it for one more step.
It notes each visible step as (index, action), a run's result keeps
that list, and its TAU-padded trace is built only on demand.  A state
where a chain stops short of TOP is read back to a process once, by
`_read_back`, which emits closed terms as they are, without walking
them.  Written bits are prepended, so the final output string is read
verbatim as a most-significant-bit-first binary numeral.

Within one call, the execution relation replays a thunk, a variable
bound to an application, in the manner of Sestoft's update markers
("Deriving a lazy abstract machine", JFP 1997): the closure the thunk's
silent evaluation reached, and in how many steps, is recorded, and its
next entry takes both at once, so step counts, traces and states stay
those of call-by-name.  Saves, restores and visible steps read more
than the thunk, so they cancel the evaluations under way.

`lts_step` is the labeled transition system on processes, from one step
of the closure loop without input: the moves at an instruction head,
each built by `successor`, or the silent step read back.  `eval_step` is
its silent move, and `exec_step_labeled` reads `run(c, 1)`.
`settled_moves` is what a process offers once its silent steps are
done, the one answer behind `equivalence.observable`, `weak_bisim` and
`top_equiv`: the moves the closure loop gives back where the chain
stops, with nothing read back.  `settle` is the exact loop: it follows
`eval_step` with a seen-set, for finite-pole membership, which passes
its seeds as targets, and for a chain that spends its fuel in
`settled_moves` and can still step, to tell a cycle from spent fuel.
No path here copies a body through `substitute`.

`_runs_on_inputs` gives a trace pole the runs on every input of at most
n bits from one walk over the input tree: the loop pauses w's run at the
read that finds w used up, and that state goes on with no bits (w's own
run) and with each next bit.  The fuel is a budget per input, and the
walk holds one level of paused states at most: at n = 15 a copy pole
took 2.3 s against 4.9 s for one run per input, and +36 MB of peak RSS
against +0 (Python 3.11.7, 2 cores).
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Container, Iterator

from .syntax import (
    Abs, App, CALLCC, Kont, Pair, Process, READ, Stack, TOP, Term, Var,
    WRITE0, WRITE1, END, pretty,
)
from .verdict import Verdict, _Record, _set

__all__ = [
    "DEFAULT_FUEL", "Action", "ExecutionContext", "RunResult",
    "eval_step", "settle", "settled_moves", "successor", "lts_step", "exec_step",
    "exec_step_labeled", "run", "bin_nat", "nat_of_bin", "implements_row",
]

DEFAULT_FUEL = 1_000_000


class Action(Enum):
    """Transition labels; TAU is the silent (effect-free) step."""

    TAU = "tau"
    R0 = "r0"
    R1 = "r1"
    REPS = "reps"
    W0 = "w0"
    W1 = "w1"
    E = "e"


class ExecutionContext(_Record):
    """A process together with remaining input and accumulated output.

    The head of `input` is the next bit to be read; the head of `output`
    is the most recently written bit.
    """

    __slots__ = ("process", "input", "output")
    process: Process
    input: str
    output: str

    def __init__(self, process: Process, input: str = "", output: str = ""):
        for field in (input, output):
            if field.strip("01"):
                raise ValueError(f"input/output must contain only bits: {field!r}")
        _set(self, "process", process)
        _set(self, "input", input)
        _set(self, "output", output)

    def __str__(self):
        return f"({pretty(self.process)}, {self.input!r}, {self.output!r})"


class RunResult(_Record):
    """Outcome of a fuel-bounded run.

    outcome is "terminated" (reached TOP), "stuck" (no step applies), or
    "fuel" (step budget exhausted).  `visible` is the loop's (index,
    action) list of the visible steps among the `steps` taken; `trace`,
    with a TAU for each silent step, is built from them on demand.  A
    "terminated" run that takes a step ends its trace with Action.E.
    """

    __slots__ = ("outcome", "final", "steps", "visible")
    outcome: str
    final: ExecutionContext
    steps: int
    visible: tuple[tuple[int, Action], ...]

    def __init__(self, outcome: str, final: ExecutionContext, steps: int, visible: tuple):
        _set(self, "outcome", outcome)
        _set(self, "final", final)
        _set(self, "steps", steps)
        _set(self, "visible", visible)

    @property
    def trace(self) -> tuple[Action, ...]:
        trace = [_TAU] * self.steps
        for i, action in self.visible:
            trace[i] = action
        return tuple(trace)

    @property
    def terminated(self) -> bool:
        return self.outcome == "terminated"

    def visible_trace(self) -> tuple[Action, ...]:
        return tuple([a for _, a in self.visible])

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "process": pretty(self.final.process),
            "input": self.final.input,
            "output": self.final.output,
            "steps": self.steps,
            "trace": [a.value for a in self.trace],
        }


# The members as module constants: an attribute lookup on the Enum class
# takes about 170 ns on Python 3.11, and the rules below run once a step.
_TAU, _R0, _R1, _REPS, _W0, _W1, _E = Action


# ---------------------------------------------------------------------------
# Closure states.  An environment is None or a linked (name, closure,
# parent); a closure is (term, environment); a closure stack is a chain of
# (closure, rest) cells ending in a plain `Stack` of closed terms, whose
# entries are closures with the empty environment.


# The labels of an instruction's moves in `_iterate`: a read's branches
# in the order R0, R1, REPS, or the one move of a write or end.
_READS, _WRITES0, _WRITES1, _ENDS = (_R0, _R1, _REPS), (_W0,), (_W1,), (_E,)


def lts_step(p: Process) -> tuple[tuple[Action, Process], ...]:
    """All transitions of p, as (action, successor) pairs, from one step
    of `_iterate` without input.  A read head with at least three stack
    entries offers exactly the three read branches, in the order R0, R1,
    REPS; every other head offers at most one transition.  A visible
    move goes where `successor` says; a silent step is read back."""
    if type(p) is not Pair:
        return ()
    outcome, t, env, s, steps, moves, _ = _iterate(p.term, None, p.stack, 1, None)
    if outcome != "moves":
        return ((_TAU, _read_back(t, env, s)),) if steps else ()
    return tuple([(label, successor(moves, k)) for k, label in enumerate(moves[0])])


# Read-back work items; see `_read_back`.
_TERM, _CLOSURE, _STACK, _APP, _ABS, _CONS, _MEMO = range(7)


def _read_back(t: Term, env, s) -> Pair:
    """The process that the closure state (t, env, s) stands for.

    Each free variable is replaced by the read-back of the closure it is
    bound to.  Those are closed, so nothing is captured and no bound
    name changes: the result is the process the substitution machine
    reaches, name for name.  One walk from an explicit work list,
    building terms and stacks on `out`.  What is already its own
    read-back goes to `out` at once and pushes no work: a closure whose
    environment is empty or whose term is closed, as the head, a
    variable's value or a cell's entry, a variable bound inside the term
    being read back, a `Stack`, and a closed child of an application,
    which, as the argument, rides on the build item.  Work is pushed for
    open subterms, other closures and stack cells, and for the nodes
    built from them.  Those closures and cells are read back once each
    (memoized by identity within this call), so a closure that an
    environment binds twice reads back to one shared term.  A
    continuation that `cc` saved is a closed `Kont` whose `Stack` the
    loop went on with, so it and the tail are one object already."""
    memo: dict[int, object] = {}
    out: list = []
    work: list = [(_STACK, s)]
    pop, push = work.pop, work.append
    if env is None or not t.fvs:
        out.append(t)
    else:
        push((_CLOSURE, (t, env)))
    while work:
        item = pop()
        tag = item[0]
        if tag is _TERM:
            _, u, e = item
        elif tag is _CLOSURE or tag is _STACK:
            x = item[1]
            if type(x) is Stack:
                out.append(x)
                continue
            u, e = x  # an open closure (term, environment) or a cell (closure, rest)
            if id(x) in memo:
                out.append(memo[id(x)])
                continue
            push((_MEMO, x))
            if tag is _STACK:  # a (closure, rest) cell
                push((_CONS,))
                push((_STACK, e))
                if u[1] is None or not u[0].fvs:
                    out.append(u[0])
                else:
                    push((_CLOSURE, u))
                continue
        else:
            if tag is _APP:
                arg = item[1]
                if arg is None:
                    arg = out.pop()
                out.append(App(out.pop(), arg))
            elif tag is _ABS:
                out.append(Abs(item[1], out.pop()))
            elif tag is _CONS:
                tail = out.pop()
                out.append(Stack(out.pop(), tail))
            else:
                memo[id(item[1])] = out[-1]
            continue
        # u, whose free variables are bound in e, is read back now
        cls = type(u)
        if cls is Var:
            name = u.name
            while e[0] != name:
                e = e[2]
            c = e[1]
            if c is None:  # bound inside the term being read back
                out.append(u)
            elif c[1] is None or not c[0].fvs:
                out.append(c[0])
            else:
                push((_CLOSURE, c))
        elif cls is App:
            fun, arg = u.fun, u.arg
            if arg.fvs:
                push((_APP, None))
                push((_TERM, arg, e))
            else:
                push((_APP, arg))
            if fun.fvs:
                push((_TERM, fun, e))
            else:
                out.append(fun)
        else:  # an Abs: its parameter is bound in its body
            push((_ABS, u.param))
            push((_TERM, u.body, (u.param, None, e)))
    term, stack = out
    return Pair(term, stack)


# What `_iterate` reads on every step, unpacked into locals at once: a
# local reads faster than a global, and one unpack costs less per call
# than a load of each.
_LOOP_GLOBALS = Var, App, Abs, Kont, CALLCC, tuple, list


def _unmarked(s, marks: int):
    """The closure stack s without its `marks` thunk marks (see
    `_iterate`): the cells above the deepest mark are copied, those
    below it are kept."""
    above = []
    while marks:
        if type(s) is list:
            s = s[2]
            marks -= 1
        else:
            above.append(s[0])
            s = s[1]
    for top in reversed(above):
        s = top, s
    return s


def _iterate(t: Term, env, s, fuel: int, source: str | None, pause: bool = False) -> tuple:
    """Step the closure state (t, env, s) at most `fuel` times; return
    (outcome, t, env, s, steps, visible, read), where (t, env, s) is the
    state it stopped at.  A process p is the state (p.term, None, p.stack).

    Push, pop, save and restore each take one silent step, and a
    variable head is replaced by the closure it is bound to without one;
    a pushed variable pushes the closure it names, so no chain of
    indirections builds up.  A silent step calls no helper: both lookups
    and the pop of the closure stack are written in place, and so are
    the read, write and end rules, which pop three arguments, one or
    none (an instruction that lacks one is stuck).  Two calls are the
    exceptions: a save, restore or visible step that finds thunk marks
    drops them with `_unmarked`, and a save whose rest still holds
    closure cells reads it back (`_read_back`) to the `Stack` that its
    `Kont` holds and the loop goes on with.  Given `source`, the input
    bits, this is the execution relation: a read takes its first or
    second argument as the next unread bit is 0 or 1, or its third when
    the input is used up (`read` counts the bits read), and loads only
    that closure.  Given None it is the evaluation relation, which
    stops at an instruction head with its arguments, unpopped, and gives
    back in the `visible` slot its moves (labels, closures, rest):
    `labels` is `_READS`, `_WRITES0`, `_WRITES1` or `_ENDS`, and move
    `labels[k]` goes on with `closures[k]` on `rest` (None and None
    after end).  With `pause` set, the loop stops at a read that finds
    the input used up, its stack not popped, to go on later with more
    input or none; only that branch tests the flag.  outcome is
    "terminated" (end was taken), "stuck" (a rule failed), "moves" or
    "input" (paused at such a read), each after fewer than `fuel` steps,
    or "fuel" (`fuel` steps were taken).  The loop runs over
    `range(fuel)`, whose index is the step count, so no step tests the
    budget, and no code after it tests a rule: "fuel" says nothing of
    whether the state it stopped at can step.  `visible` lists (index,
    action) for each visible step, so a silent step appends nothing.

    The execution relation replays thunks.  A variable head bound to an
    application closure c pushes a mark [c, index, s] on its stack s,
    unless a mark is on top (a tail call: the outer mark stands for
    both).  Until an abstraction head meets the mark, the steps pop only
    what they pushed, so they and the closure they reach depend on c
    alone: both are recorded, and the next entry of c takes them in one
    jump if the budget holds them, so step counts and traces stay
    call-by-name's.  Save, restore, visible steps and every return drop
    all marks first, so no segment with an effect is recorded and no
    continuation, visible rule or returned state sees a mark.  The
    record lives for one call, and only given `source`: the evaluation
    relation's chains are short, and there it cost more than it saved."""
    Var_, App_, Abs_, Kont_, CALLCC_, tuple_, list_ = _LOOP_GLOBALS
    read = 0
    size = 0 if source is None else len(source)
    visible: list[tuple[int, Action]] = []
    memo = None if source is None else {}
    marks = begin = 0
    while True:
        for i in range(begin, fuel):
            # CPython 3.11 specializes type(t) (5.1 ns), not a load of the class attribute (11.6 ns)
            cls = type(t)
            if cls is Var_:
                name = t.name
                while env[0] != name:
                    env = env[2]
                t, env = c = env[1]
                cls = type(t)
                if memo is not None and cls is App_:  # entering a thunk
                    done = memo.get(id(c))
                    if done is not None and i + done[0] <= fuel:
                        begin, t, env, _ = done
                        begin += i
                        break
                    if type(s) is not list_:
                        s = [c, i, s]
                        marks += 1
            if cls is App_:
                arg = t.arg
                if type(arg) is Var_:
                    name, e = arg.name, env
                    while e[0] != name:
                        e = e[2]
                    s = e[1], s
                else:
                    s = (arg, env), s
                t = t.fun
            elif cls is Abs_:
                if type(s) is not tuple_:
                    if type(s) is list_:  # a thunk's value: record it
                        c, start, s = s
                        memo[id(c)] = i - start, t, env, c  # holding c keeps id(c) unused
                        marks -= 1
                    if type(s) is not tuple_:
                        if s.head is None:
                            return "stuck", t, env, s, i, visible, read
                        s = (s.head, None), s.tail
                top, s = s
                env = (t.param, top, env)
                t = t.body
            else:
                if marks:  # a save, restore or visible step ends the thunks under way
                    s = _unmarked(s, marks)
                    marks = 0
                if cls is Kont_ or t is CALLCC_:
                    if type(s) is tuple_:
                        top, rest = s
                    elif s.head is None:
                        return "stuck", t, env, s, i, visible, read
                    else:
                        top, rest = (s.head, None), s.tail
                    if t is CALLCC_ and type(rest) is tuple_:  # a saved rest is a `Stack`
                        rest = _read_back(t, None, rest).stack
                    # restore a continuation's stack, or save the rest (cc) and go on with it
                    s = t.stack if t is not CALLCC_ else ((Kont_(rest), None), rest)
                    t, env = top
                    continue
                if t is READ:
                    if type(s) is tuple_:
                        first, rest = s
                    elif s.head is None:
                        return "stuck", t, env, s, i, visible, read
                    else:
                        first, rest = (s.head, None), s.tail
                    if type(rest) is tuple_:
                        second, rest = rest
                    elif rest.head is None:
                        return "stuck", t, env, s, i, visible, read
                    else:
                        second, rest = (rest.head, None), rest.tail
                    if type(rest) is tuple_:
                        third, rest = rest
                    elif rest.head is None:
                        return "stuck", t, env, s, i, visible, read
                    else:
                        third, rest = (rest.head, None), rest.tail
                    if source is None:
                        return "moves", t, env, s, i, (_READS, (first, second, third), rest), read
                    if read < size:
                        if source[read] == "0":
                            visible.append((i, _R0))
                            t, env = first
                        else:
                            visible.append((i, _R1))
                            t, env = second
                        read += 1
                    elif pause:
                        return "input", t, env, s, i, visible, read
                    else:
                        visible.append((i, _REPS))
                        t, env = third
                    s = rest
                elif t is WRITE0 or t is WRITE1:
                    if type(s) is tuple_:
                        top, rest = s
                    elif s.head is None:
                        return "stuck", t, env, s, i, visible, read
                    else:
                        top, rest = (s.head, None), s.tail
                    labels = _WRITES0 if t is WRITE0 else _WRITES1
                    if source is None:
                        return "moves", t, env, s, i, (labels, (top,), rest), read
                    visible.append((i, labels[0]))
                    (t, env), s = top, rest
                elif t is END:
                    if source is None:
                        return "moves", t, env, s, i, (_ENDS, (None,), None), read
                    visible.append((i, _E))
                    return "terminated", t, env, None, i + 1, visible, read
                else:
                    return "stuck", t, env, s, i, visible, read
        else:
            if marks:
                s = _unmarked(s, marks)
            return "fuel", t, env, s, fuel, visible, read


def _check_bound(value: int, name: str = "fuel") -> None:
    """Reject, before any step, a bound (a fuel, or `weak_bisim`'s depth)
    that is not an int (TypeError; a bool is not one) or is negative (ValueError)."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative")


def eval_step(p: Process) -> Process | None:
    """The unique effect-free successor of p, or None if no rule applies
    (an instruction head steps only in the execution relation): the TAU
    move of `lts_step`, the substitution machine's step, name for name."""
    transitions = lts_step(p)
    return transitions[0][1] if transitions and transitions[0][0] is _TAU else None


def settle(p: Process, fuel: int, targets: Container[Process] = ()) -> tuple[str, Process]:
    """Follow `eval_step` from p for at most `fuel` steps, with a
    seen-set; return why it stopped and the process it stopped at.  The
    reason is "stop" (a member of `targets`), "stuck" (no silent step
    applies), "cycle" (a process repeats) or "fuel", checked in that
    order at each process.  A fuel that is not an integer raises
    TypeError, a negative one ValueError.  Finite-pole membership passes
    its seeds as targets; `settled_moves` comes here only for a chain
    that spends its fuel on closures and can still step."""
    _check_bound(fuel)
    seen: set[Process] = set()
    current = p
    while True:
        if targets and current in targets:
            return "stop", current
        q = eval_step(current)
        if q is None:
            return "stuck", current
        size = len(seen)
        seen.add(current)  # one hash per step: an unchanged size is a repeat
        if len(seen) == size:
            return "cycle", current
        if fuel <= 0:
            return "fuel", current
        fuel -= 1
        current = q


def settled_moves(p: Process, fuel: int) -> tuple | None:
    """What p offers once its silent chain of at most `fuel` steps is
    done: the (labels, closures, rest) that `_iterate` gives back, labels
    in `lts_step`'s order, where the chain stops at an instruction head
    that has its arguments; () if the settled process is silent (stuck
    with no move, TOP, or on a silent cycle); None if the fuel runs out.
    `successor` reads a move's process back.  A fuel that is not an
    integer raises TypeError, a negative one ValueError.

    The chain runs on closures, `_iterate` without input, and nothing is
    read back.  Silent steps are deterministic, so a chain stuck within
    its fuel never repeated a state.  The loop is given one step more
    than the fuel: the evaluation relation has no effects, so that step
    only tells whether a rule applies where the fuel ran out, and only
    if one does does the chain go to `settle`, to tell a cycle from
    spent fuel."""
    _check_bound(fuel)
    return () if p is TOP else _settled(p.term, None, p.stack, fuel)


def _settled_successor(moves: tuple, k: int, fuel: int) -> tuple | None:
    """`settled_moves(successor(moves, k), fuel)`, run from move k's
    closure state, so that only a chain that spends its fuel reads the
    successor back, for `settle`.  The fuel is not checked."""
    _, closures, rest = moves
    closure = closures[k]
    return () if closure is None else _settled(closure[0], closure[1], rest, fuel)


def _settled(t: Term, env, s, fuel: int) -> tuple | None:
    """`settled_moves` of the process the closure state (t, env, s)
    stands for."""
    outcome, _, _, _, _, moves, _ = _iterate(t, env, s, fuel + 1, None)
    if outcome == "fuel":
        return None if settle(_read_back(t, env, s), fuel)[0] == "fuel" else ()
    return moves if outcome == "moves" else ()


def successor(moves: tuple, k: int) -> Process:
    """The process that move k of `settled_moves`'s (labels, closures,
    rest) continues with: its closure on the rest, read back, or TOP
    after end."""
    _, closures, rest = moves
    closure = closures[k]
    return TOP if closure is None else _read_back(closure[0], closure[1], rest)


def run(c: ExecutionContext, fuel: int = DEFAULT_FUEL) -> RunResult:
    """Iterate the execution relation at most `fuel` steps: `_iterate`
    with c's input.  Stops early at TOP ("terminated") or when no step
    applies ("stuck"); a run whose last allowed step lands on a stuck
    state is "stuck", not "fuel", as one more loop step from that state
    tells (whether a step applies does not depend on the input bits).
    The result keeps the loop's step count and visible steps as they
    are, and the final state is read back to a process unless the run
    terminated.  A fuel that is not an integer raises TypeError, a
    negative one ValueError.
    """
    _check_bound(fuel)
    p = c.process
    if p is TOP:
        return RunResult("terminated", c, 0, ())
    outcome, t, env, s, steps, visible, read = _iterate(p.term, None, p.stack, fuel, c.input)
    if outcome == "fuel" and _iterate(t, env, s, 1, "")[0] == "stuck":
        outcome = "stuck"
    written = "".join(["0" if action is _W0 else "1" for _, action in reversed(visible)
                       if action is _W0 or action is _W1])
    process = TOP if outcome == "terminated" else _read_back(t, env, s)
    return RunResult(outcome, ExecutionContext(process, c.input[read:], written + c.output),
                     steps, tuple(visible))


def _runs_on_inputs(p: Process, max_len: int,
                    fuel: int) -> Iterator[tuple[str, str, tuple[Action, ...]]]:
    """(bits, r.outcome, r.visible_trace()) with r = `run(ExecutionContext(p,
    bits), fuel)`, lazily, for each input of `all_inputs(max_len)` in its
    order, from one walk over the tree of inputs.

    The runs on w, w0 and w1 are one run up to the read that finds w used
    up.  The walk pauses w's run there and goes on from that persistent
    state with no bits, which is w's own run, and, below `max_len`, with
    each bit, which pauses again at w0 and w1.  A run that never finds w
    used up is the run on every extension of w.  Each input has its own
    budget, counted from its start.  The work list holds at most one
    level of paused states.  The fuel is checked as `run` checks it."""
    _check_bound(fuel)
    if p is TOP:
        start = "terminated", (), None
    else:
        start = _resume((p.term, None, p.stack, fuel), "", True, ())
    work = deque([("", start)])
    while work:
        bits, node = work.popleft()
        outcome, actions, paused = node
        deeper = len(bits) < max_len
        if paused is None:  # every extension of bits runs the same
            yield bits, outcome, actions
            if deeper:
                work += (bits + "0", node), (bits + "1", node)
            continue
        yield (bits, *_resume(paused, "", False, actions)[:2])
        if deeper:
            work += ((bits + "0", _resume(paused, "0", True, actions)),
                     (bits + "1", _resume(paused, "1", True, actions)))


def _resume(state: tuple, source: str, pause: bool, actions: tuple) -> tuple:
    """Go on from `state`, (t, env, s, fuel left), with input `source`;
    return (outcome, actions extended by the visible steps taken,
    paused): paused is the new state for "input", else None, and the
    outcome is `run`'s."""
    t, env, s, left = state
    outcome, t, env, s, steps, visible, _ = _iterate(t, env, s, left, source, pause)
    if visible:
        actions += tuple([a for _, a in visible])
    if outcome == "input":
        return outcome, actions, (t, env, s, left - steps)
    if outcome == "fuel" and _iterate(t, env, s, 1, "")[0] == "stuck":
        outcome = "stuck"
    return outcome, actions, None


def exec_step_labeled(c: ExecutionContext) -> tuple[Action, ExecutionContext] | None:
    """One execution step together with its action, or None if stuck:
    `run(c, 1)`'s one action, TAU if it is silent, and its final context."""
    result = run(c, 1)
    if not result.steps:
        return None
    return (result.visible[0][1] if result.visible else _TAU), result.final


def exec_step(c: ExecutionContext) -> ExecutionContext | None:
    """One execution step, or None if the context is stuck."""
    step = exec_step_labeled(c)
    return None if step is None else step[1]


def bin_nat(n: int) -> str:
    """MSB-first base-2 representation; zero is the empty string."""
    if n < 0:
        raise ValueError("bin_nat is defined for naturals only")
    return "" if n == 0 else format(n, "b")


def nat_of_bin(s: str) -> int:
    """Inverse of bin_nat; rejects leading zeros and non-bit characters."""
    if s == "":
        return 0
    if s.strip("01"):
        raise ValueError(f"not a bit string: {s!r}")
    if s[0] == "0":
        raise ValueError(f"leading zero in binary numeral: {s!r}")
    return int(s, 2)


def implements_row(p: Process, n: int, m: int, fuel: int = DEFAULT_FUEL) -> Verdict:
    """Check a single input/output table row: running p on bin(n) must
    terminate with empty residual input and output exactly bin(m)."""
    result = run(ExecutionContext(p, bin_nat(n), ""), fuel)
    if result.outcome == "fuel":
        return Verdict.unknown("fuel", witness=(n, result))
    if result.outcome == "stuck":
        return Verdict.refuted((n, result))
    if result.final.input == "" and result.final.output == bin_nat(m):
        return Verdict.verified()
    return Verdict.refuted((n, result))
