"""Bounded weak bisimilarity and TOP-equivalence.

Both are checked over the labeled transition system of the machine
(`machine.lts_step`, re-exported here).  A process's observable is what
it offers once `machine.settle` has followed its silent chain: one
`lts_step` on the process that chain stops at.  Every silent step is a
step of the closure machine, read back (`machine.eval_step`), so a deep
term settles without recursion; `substitute` runs only in
`beta_contract`, which no CLI path calls.  Silent steps are
deterministic, and only a read head offers more than one labeled
transition, so the bounded bisimulation check can compare unique
successors per label instead of searching relations.  It walks the pairs
from an explicit work list, so its depth bound is not limited by
Python's recursion limit.  At its depth frontier it reads labels only
(`machine.settled_labels`): a pair with no depth left is compared by its
two label sets, and no settled process or successor is built for it.
"""

from __future__ import annotations

from .machine import (
    Action, ExecutionContext, _check_bound, lts_step, run, settle, settled_labels,
)
from .syntax import (
    Abs, App, InvalidPosition, Position, Process,
    replace_at, subterm_at, substitute, subterms,
)
from .verdict import Verdict, _Record, _set

__all__ = [
    "DEFAULT_DEPTH", "DEFAULT_OBS_FUEL", "Observable",
    "lts_step", "observable", "weak_bisim",
    "beta_redexes", "beta_contract", "top_equiv",
]

DEFAULT_DEPTH = 16
DEFAULT_OBS_FUEL = 100_000

_LABEL_ORDER = (Action.R0, Action.R1, Action.REPS, Action.W0, Action.W1, Action.E)


class Observable(_Record):
    """What a process can do after silently settling.

    kind is "menu" (labeled transitions available, `entries` maps each
    label to its unique successor), "silent" (stuck, or a silent cycle was
    detected, so no visible action will ever occur), or "unknown" (fuel
    ran out before the silent chain settled).
    """

    __slots__ = ("kind", "entries")
    kind: str
    entries: dict[Action, Process] | None

    def __init__(self, kind: str, entries: dict[Action, Process] | None = None):
        _set(self, "kind", kind)
        _set(self, "entries", entries)

    @property
    def is_menu(self) -> bool:
        return self.kind == "menu"


def observable(p: Process, fuel: int = DEFAULT_OBS_FUEL) -> Observable:
    """Settle p silently (`machine.settle`); the process it stops at
    offers labeled transitions (menu) or none (silent).  A silent cycle is
    silent too, and spent fuel is unknown."""
    reason, settled = settle(p, fuel)
    if reason == "fuel":
        return Observable("unknown")
    transitions = lts_step(settled) if reason == "stuck" else ()
    return Observable("menu", dict(transitions)) if transitions else Observable("silent")


def weak_bisim(p: Process, q: Process,
               depth: int = DEFAULT_DEPTH, fuel: int = DEFAULT_OBS_FUEL) -> Verdict:
    """Bounded weak-bisimilarity check.

    Verified means p and q match on all behaviors of at most `depth`
    visible actions (with silent settling bounded by `fuel`).  Refuted
    carries the first distinguishing action sequence met in preorder
    (labels in `_LABEL_ORDER`).  Unknown says "fuel" if any observable ran
    out of fuel, else "depth".  `explored` maps each pair to the most depth
    it was explored with; a pair met again with no more depth is skipped,
    which also closes cycles.  A pair with no depth left is compared by
    its two label sets alone (`machine.settled_labels`), by the same test
    as the others.  A depth or fuel that is not an integer raises
    TypeError, a negative one ValueError.
    """
    _check_bound(depth, "depth")
    _check_bound(fuel)
    explored: dict[tuple[Process, Process], int] = {}
    cut = None  # "fuel" if an observable ran out, else "depth" if a pair was cut off
    work = [(p, q, depth, ())]
    while work:
        a, b, remaining, prefix = work.pop()
        if a == b or explored.get((a, b), -1) >= remaining:
            continue
        explored[a, b] = remaining
        if remaining:
            oa, ob = observable(a, fuel), observable(b, fuel)
            labels_a = None if oa.kind == "unknown" else tuple(oa.entries or ())
            labels_b = None if ob.kind == "unknown" else tuple(ob.entries or ())
        else:
            labels_a, labels_b = settled_labels(a, fuel), settled_labels(b, fuel)
        if labels_a is None or labels_b is None:
            cut = "fuel"
            continue
        # both in `lts_step`'s order, so equal label sets are equal tuples
        if labels_a != labels_b:
            label = min(set(labels_a) ^ set(labels_b), key=_LABEL_ORDER.index)
            return Verdict.refuted(prefix + (label,))
        if remaining:
            work.extend((oa.entries[label], ob.entries[label], remaining - 1, prefix + (label,))
                        for label in reversed(labels_a))
        elif labels_a:
            cut = cut or "depth"
    return Verdict.unknown(cut) if cut else Verdict.verified()


def beta_redexes(host: Process) -> list[Position]:
    """Positions of all beta-redexes in host, in preorder left to right."""
    return [pos for pos, sub in subterms(host)
            if sub.__class__ is App and sub.fun.__class__ is Abs]


def beta_contract(host: Process, at: Position) -> Process:
    """Contract the single beta-redex addressed by `at`."""
    redex = subterm_at(host, at)
    if not (redex.__class__ is App and redex.fun.__class__ is Abs):
        raise InvalidPosition(f"position {at!r} does not address a beta-redex")
    lam = redex.fun
    contracted = substitute(lam.body, lam.param, redex.arg)
    return replace_at(host, at, contracted)


def _classify(c: ExecutionContext, fuel: int) -> tuple[str, tuple[str, str] | None]:
    """Classify a context as ("top", (input, output)), ("never", None) for
    provably never reaching TOP, or ("unknown", None)."""
    result = run(c, fuel)
    if result.outcome == "terminated":
        return "top", (result.final.input, result.final.output)
    if result.outcome == "stuck":
        return "never", None
    # Fuel ran out: the residual may still be provably silent (a cycle).
    if observable(result.final.process, fuel).kind == "silent":
        return "never", None
    return "unknown", None


def top_equiv(c1: ExecutionContext, c2: ExecutionContext,
              fuel: int = DEFAULT_OBS_FUEL) -> Verdict:
    """Do both contexts reach the same terminal (TOP, input, output), or
    provably neither?  Execution is deterministic, so a single bounded run
    per side decides this up to fuel.  A fuel that is not an integer
    raises TypeError, a negative one ValueError."""
    _check_bound(fuel)
    if c1 == c2:
        return Verdict.verified()  # deterministic execution: one context, one fate
    kind1, final1 = _classify(c1, fuel)
    kind2, final2 = _classify(c2, fuel)
    if kind1 == "unknown" or kind2 == "unknown":
        return Verdict.unknown("fuel")
    if kind1 == "top" and kind2 == "top":
        return Verdict.verified() if final1 == final2 else Verdict.refuted((final1, final2))
    if kind1 == "never" and kind2 == "never":
        return Verdict.verified()
    return Verdict.refuted((kind1, final1) if kind1 == "top" else (kind2, final2))
