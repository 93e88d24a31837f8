"""The execution relation as it stood before it was rewritten on top of
`lts_step`: hand-written read/write/end rules, and a `run` that builds an
`ExecutionContext` on every step.  Kept unchanged as a differential
oracle for `kamio.machine.exec_step_labeled` and `kamio.machine.run`.
"""

from __future__ import annotations

from kamio.machine import DEFAULT_FUEL, Action, ExecutionContext, RunResult, eval_step
from kamio.syntax import END, READ, TOP, WRITE0, WRITE1, Pair


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


def run(c: ExecutionContext, fuel: int = DEFAULT_FUEL) -> RunResult:
    """Iterate the execution relation at most `fuel` steps.

    Stops early at TOP ("terminated") or when no step applies ("stuck").
    """
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    trace: list[Action] = []
    for _ in range(fuel):
        if c.process is TOP:
            return RunResult("terminated", c, tuple(trace))
        step = exec_step_labeled(c)
        if step is None:
            return RunResult("stuck", c, tuple(trace))
        action, c = step
        trace.append(action)
    if c.process is TOP:
        return RunResult("terminated", c, tuple(trace))
    if exec_step_labeled(c) is None:
        return RunResult("stuck", c, tuple(trace))
    return RunResult("fuel", c, tuple(trace))
