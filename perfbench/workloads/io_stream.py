"""io_stream: the copy loop on seeded bit strings, a few bits to thousands.

Most steps are read and write steps, whose cost grows with the length of
the remaining input and the output written so far.  A smaller share
checks trace-discipline pole membership with known verdicts.  The oracle
for a copy run is the reversed input (writes prepend).
"""

from __future__ import annotations

import random
import zlib

from harness import Op, Outcome, Workload

COPY_LOOP = r"Y * (\x. read (write0 x) (write1 x) end) :: nil"
SWAP_LOOP = r"Y * (\x. read (write1 x) (write0 x) end) :: nil"

# Input lengths of one cycle; the seed jitters each by up to +-3% and
# draws the bits.  With 16 trace-pole ops, 100 ops a cycle.  Blocks of
# equal length hold the median (128 bits) and p90 (512 bits), so neither
# lands between two cost classes.
LENGTHS = (4, 8, 16, 32, 64) * 5 + (128,) * 41 + (256,) * 5 + (512,) * 12 + (2048,)
POLE_REPEATS = 4


def build(k, seed: int) -> Workload:
    rng = random.Random(f"io_stream:{seed}")
    defs = k.combinators.prelude_definitions(k.combinators.PRELUDE_SOURCE)
    copy = k.parse_process(k.combinators.resolve_names(COPY_LOOP, defs))
    swap = k.parse_process(k.combinators.resolve_names(SWAP_LOOP, defs))
    R = k.realizability
    inputs = []
    for length in LENGTHS:
        n = max(1, round(length * (1 + rng.uniform(-0.03, 0.03))))
        inputs.append("".join(rng.choice("01") for _ in range(n)))
    ops = [copy_op(k, copy, bits) for bits in inputs]
    ops += [
        pole_op(R.TracePole(R.COPY, 4), copy, "copy", None),
        pole_op(R.TracePole(R.COPY, 5), copy, "copy", None),
        pole_op(R.TracePole(R.COPY, 4), swap, "swap", "0"),
        pole_op(R.TracePole(R.READ_ALL_THEN_WRITE, 4), copy, "copy", "0"),
    ] * POLE_REPEATS
    rng.shuffle(ops)

    def harvest() -> dict:
        return {"contexts": [k.ExecutionContext(copy, bits, "") for bits in inputs[:5] + inputs[-4:]]}

    return Workload("io_stream", ops, harvest)


def copy_op(k, process, bits: str) -> Op:
    context = k.ExecutionContext(process, bits, "")
    want = bits[::-1]

    def call(tr) -> Outcome:
        with tr.span("machine.run"):
            result = k.run(context)
        record = f"copy {len(bits)} {result.outcome} {result.steps} {zlib.crc32(result.final.output.encode())}"
        error = None
        if not result.terminated:
            error = result.outcome
        elif result.final.input != "" or result.final.output != want:
            error = "output is not the reversed input"
        return Outcome(record, error, steps=result.steps)

    return Op("copy", call)


def pole_op(pole, process, label: str, refuted_on: str | None) -> Op:
    """Membership of `process` in a trace pole: verified (sampled), or
    refuted with the first failing input `refuted_on`."""

    def call(tr) -> Outcome:
        with tr.span("realizability.member.trace"):
            verdict = pole.member(process)
        witness = verdict.witness[0] if verdict.is_refuted else None
        record = f"trace {pole.spec} {pole.max_input_len} {label} {verdict.status} {witness}"
        if refuted_on is None:
            ok = verdict.is_verified and verdict.sampled
        else:
            ok = verdict.is_refuted and witness == refuted_on
        return Outcome(record, None if ok else f"verdict {verdict.status} {witness!r}",
                       decided=int(not verdict.is_unknown))

    return Op("trace_pole", call)
