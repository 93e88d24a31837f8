"""The evaluation relation, the labeled transition system, and execution.

Effect-free evaluation (`eval_step`) rewrites a process by weak head
reduction (push/pop) plus continuation capture and restore.  The labeled
transition system (`lts_step`) adds the visible transitions of the
instruction constants in head position (read, write, end); its silent
(tau) transitions are exactly the evaluation steps.  These two functions
are the only places the machine rules are written.  `settle` is the one
loop over silent steps alone; it serves `equivalence.observable` and
finite-pole membership.  Execution is that system on a context (process,
input bits, output bits), with the read branch chosen by the next input
bit: reads consume input bits, writes prepend output bits, and `end`
discards the stack and terminates at TOP.  `run` takes silent steps
straight from `eval_step` and consults `lts_step` only for the heads
`eval_step` rejects.  Written bits are prepended, so the final output
string is read verbatim as a most-significant-bit-first binary numeral.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Container

from .syntax import (
    Abs, App, CALLCC, Kont, Pair, Process, READ, Stack, TOP,
    WRITE0, WRITE1, END, pretty, substitute,
)
from .verdict import Verdict

__all__ = [
    "DEFAULT_FUEL", "Action", "ExecutionContext", "RunResult",
    "eval_step", "settle", "lts_step", "exec_step", "exec_step_labeled", "run",
    "bin_nat", "nat_of_bin", "implements_row", "implements_on",
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


@dataclass(frozen=True)
class ExecutionContext:
    """A process together with remaining input and accumulated output.

    The head of `input` is the next bit to be read; the head of `output`
    is the most recently written bit.
    """

    process: Process
    input: str = ""
    output: str = ""

    def __post_init__(self):
        for field in (self.input, self.output):
            if field.strip("01"):
                raise ValueError(f"input/output must contain only bits: {field!r}")

    def __str__(self):
        return f"({pretty(self.process)}, {self.input!r}, {self.output!r})"


@dataclass(frozen=True)
class RunResult:
    """Outcome of a fuel-bounded run.

    outcome is "terminated" (reached TOP), "stuck" (no step applies), or
    "fuel" (step budget exhausted).  For runs that take at least one step,
    a "terminated" trace always ends with Action.E.
    """

    outcome: str
    final: ExecutionContext
    trace: tuple[Action, ...]

    @property
    def steps(self) -> int:
        return len(self.trace)

    @property
    def terminated(self) -> bool:
        return self.outcome == "terminated"

    def visible_trace(self) -> tuple[Action, ...]:
        return tuple(a for a in self.trace if a is not Action.TAU)

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "process": pretty(self.final.process),
            "input": self.final.input,
            "output": self.final.output,
            "steps": self.steps,
            "trace": [a.value for a in self.trace],
        }


def eval_step(p: Process) -> Process | None:
    """The unique effect-free successor of p, or None if no rule applies.

    Instruction constants in head position never step here; they only
    step in the execution relation.
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


def lts_step(p: Process) -> tuple[tuple[Action, Process], ...]:
    """All transitions of p, as (action, successor) pairs.

    A read head with at least three stack entries offers exactly the
    three read branches, in the order R0, R1, REPS; every other head
    offers at most one transition.
    """
    if p is TOP or not isinstance(p, Pair):
        return ()
    t, pi = p.term, p.stack
    if t is END:
        return ((Action.E, TOP),)
    if t is READ:
        if len(pi) < 3:
            return ()
        first = pi.head
        rest1 = pi.tail
        second = rest1.head
        rest2 = rest1.tail
        third = rest2.head
        tail = rest2.tail
        return (
            (Action.R0, Pair(first, tail)),
            (Action.R1, Pair(second, tail)),
            (Action.REPS, Pair(third, tail)),
        )
    if t is WRITE0:
        return () if pi.is_empty else ((Action.W0, Pair(pi.head, pi.tail)),)
    if t is WRITE1:
        return () if pi.is_empty else ((Action.W1, Pair(pi.head, pi.tail)),)
    q = eval_step(p)
    return () if q is None else ((Action.TAU, q),)


# Index of the read branch (in lts_step's order) that the next input bit
# selects; "" stands for the used-up input.
_READ_BRANCH = {"0": 0, "1": 1, "": 2}

# Per action: input bits consumed, and the bit prepended to the output.
_IO_EFFECT = {
    Action.TAU: (0, ""), Action.R0: (1, ""), Action.R1: (1, ""),
    Action.REPS: (0, ""), Action.W0: (0, "0"), Action.W1: (0, "1"),
    Action.E: (0, ""),
}


def _exec(p: Process, bit: str) -> tuple[Action, Process] | None:
    """The execution step of p when `bit` is the next input bit, or None
    if stuck: the only transition of p, or the read branch `bit` selects."""
    transitions = lts_step(p)
    if len(transitions) > 1:
        return transitions[_READ_BRANCH[bit]]
    return transitions[0] if transitions else None


def exec_step_labeled(c: ExecutionContext) -> tuple[Action, ExecutionContext] | None:
    """One execution step together with its action, or None if stuck."""
    step = _exec(c.process, c.input[:1])
    if step is None:
        return None
    action, q = step
    consumed, bit = _IO_EFFECT[action]
    return action, ExecutionContext(q, c.input[consumed:], bit + c.output)


def exec_step(c: ExecutionContext) -> ExecutionContext | None:
    """One execution step, or None if the context is stuck."""
    step = exec_step_labeled(c)
    return None if step is None else step[1]


def run(c: ExecutionContext, fuel: int = DEFAULT_FUEL) -> RunResult:
    """Iterate the execution relation at most `fuel` steps.

    Silent steps come straight from `eval_step`; `lts_step` (through
    `_exec`) is consulted only at the heads `eval_step` rejects, that is
    instruction heads, stuck processes and TOP.  Since `lts_step`'s
    silent transitions are exactly `eval_step`'s, this is the execution
    relation itself.  Stops early at TOP ("terminated") or when no step
    applies ("stuck").  A run whose last allowed step lands on a stuck
    state is "stuck", not "fuel".
    """
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    p, source = c.process, c.input
    read = 0
    written: list[str] = []  # in writing order; the output gets them prepended
    trace: list[Action] = []
    tau = Action.TAU
    while len(trace) < fuel:
        q = eval_step(p)
        if q is not None:
            trace.append(tau)
            p = q
            continue
        step = _exec(p, source[read:read + 1])
        if step is None:
            stuck = True
            break
        action, p = step
        trace.append(action)
        consumed, bit = _IO_EFFECT[action]
        read += consumed
        written.append(bit)
    else:  # fuel spent: stuck exactly when neither relation offers a step
        stuck = eval_step(p) is None and _exec(p, source[read:read + 1]) is None
    final = ExecutionContext(p, source[read:], "".join(reversed(written)) + c.output)
    outcome = "terminated" if p is TOP else "stuck" if stuck else "fuel"
    return RunResult(outcome, final, tuple(trace))


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


def implements_on(p: Process, table: dict[int, int], fuel: int = DEFAULT_FUEL) -> Verdict:
    """Check p against a finite input/output table.

    Verified covers only the supplied rows; it is a bounded proxy for
    implementing the function on its whole domain.
    """
    return Verdict.all_of(implements_row(p, n, table[n], fuel) for n in sorted(table))
