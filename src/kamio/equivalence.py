"""Bounded weak bisimilarity and TOP-equivalence.

Both are checked over the labeled transition system of the machine
(`machine.lts_step`, re-exported here).  What a process offers once its
silent chain is done comes from one function, `machine.settled_moves`,
with nothing read back; `machine.successor` reads back one move's
process.  `observable` is that answer as a menu, `weak_bisim` reads each
pair's labels from it at every depth, and `top_equiv` asks it whether
the residual of a run that spent its fuel is silent.  A deep term
settles without recursion; `substitute` runs only in `beta_contract`,
which no CLI path calls.  Silent steps are deterministic, and only a
read head offers more than one labeled transition, so the bounded
bisimulation check compares unique successors per label instead of
searching relations, from an explicit work list, so its depth bound is
not limited by Python's recursion limit.
"""

from __future__ import annotations

from .machine import (
    Action, ExecutionContext, _check_bound, lts_step, run, settled_moves, successor,
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
    """What p offers once settled (`machine.settled_moves`): a menu of
    labeled transitions, each to its successor, or silent (stuck with no
    transition, or a silent cycle), or unknown when the fuel runs out."""
    moves = settled_moves(p, fuel)
    if moves is None:
        return Observable("unknown")
    if not moves:
        return Observable("silent")
    return Observable("menu", {label: successor(moves, k) for k, label in enumerate(moves[0])})


def weak_bisim(p: Process, q: Process,
               depth: int = DEFAULT_DEPTH, fuel: int = DEFAULT_OBS_FUEL) -> Verdict:
    """Bounded weak-bisimilarity check.

    Verified means p and q match on all behaviors of at most `depth`
    visible actions (with silent settling bounded by `fuel`).  Refuted
    carries the first distinguishing action sequence met in preorder
    (labels in `_LABEL_ORDER`).  Unknown says "fuel" if any settling ran
    out of fuel, else "depth".  `explored` maps each pair to the most depth
    it was explored with; a pair met again with no more depth is skipped,
    which also closes cycles.  Each pair's labels come from
    `machine.settled_moves`, and the successors of a pair with depth
    left from `machine.successor`, so a pair with no depth left builds
    no process.  A depth or fuel that is not an integer raises
    TypeError, a negative one ValueError.
    """
    _check_bound(depth, "depth")
    _check_bound(fuel)
    explored: dict[tuple[Process, Process], int] = {}
    cut = None  # "fuel" if a settling ran out, else "depth" if a pair was cut off
    work = [(p, q, depth, ())]
    while work:
        a, b, remaining, prefix = work.pop()
        if a == b or explored.get((a, b), -1) >= remaining:
            continue
        explored[a, b] = remaining
        moves_a, moves_b = settled_moves(a, fuel), settled_moves(b, fuel)
        if moves_a is None or moves_b is None:
            cut = "fuel"
            continue
        labels_a = moves_a[0] if moves_a else ()
        labels_b = moves_b[0] if moves_b else ()
        # both in `lts_step`'s order, so equal label sets are equal tuples
        if labels_a != labels_b:
            label = min(set(labels_a) ^ set(labels_b), key=_LABEL_ORDER.index)
            return Verdict.refuted(prefix + (label,))
        if remaining:
            work.extend((successor(moves_a, k), successor(moves_b, k), remaining - 1,
                         prefix + (labels_a[k],)) for k in reversed(range(len(labels_a))))
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
    if settled_moves(result.final.process, fuel) == ():
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
