"""Earlier versions of rewritten code, kept unchanged as differential
oracles.

- The execution relation as it stood before it was rewritten on top of
  `lts_step`: hand-written read/write/end rules, and a `run` that builds
  an `ExecutionContext` on every step.  Oracle for
  `kamio.machine.exec_step_labeled` and `kamio.machine.run`.
- `trace_conforms` as it stood when it tested the read_all_then_write
  discipline clause by clause.  Oracle for
  `kamio.realizability.trace_conforms`.
"""

from __future__ import annotations

from kamio.machine import DEFAULT_FUEL, Action, ExecutionContext, RunResult, eval_step
from kamio.realizability import COPY, READ_ALL_THEN_WRITE
from kamio.syntax import END, READ, TOP, WRITE0, WRITE1, Pair, Process
from kamio.verdict import Verdict


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
