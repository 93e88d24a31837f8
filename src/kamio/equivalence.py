"""Bounded weak bisimilarity and TOP-equivalence.

Both are checked over the labeled transition system of the machine
(`machine.lts_step`, re-exported here).  What a process offers once its
silent chain is done comes from one function, `machine.settled_moves`,
with nothing read back; `machine.successor` reads back one move's
process.  `observable` is that answer as a menu that reads a successor
back when it is looked up, `weak_bisim` reads each pair's labels from
it at every depth and reads a pair back when it pops it, and
`top_equiv` asks it whether the residual of a run that spent its fuel
is silent.  A deep term settles without recursion; `substitute` runs
only in `beta_contract`, which no CLI path calls.  Silent steps are
deterministic, and only a read head offers more than one labeled
transition, so the bounded bisimulation check compares unique
successors per label instead of searching relations, from an explicit
work list, so its depth bound is not limited by Python's recursion
limit.
"""

from __future__ import annotations

from collections.abc import Mapping

from .machine import (
    Action, ExecutionContext, _check_bound, _settled_successor, lts_step, run,
    settled_moves, successor,
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
    ran out before the silent chain settled).  `observable`'s entries
    read a successor back when it is looked up; a dict compares equal
    to them.
    """

    __slots__ = ("kind", "entries")
    kind: str
    entries: Mapping[Action, Process] | None

    def __init__(self, kind: str, entries: Mapping[Action, Process] | None = None):
        _set(self, "kind", kind)
        _set(self, "entries", entries)

    @property
    def is_menu(self) -> bool:
        return self.kind == "menu"


class _Menu(Mapping):
    """`settled_moves`'s (labels, closures, rest) as a read-only mapping
    from each label to its successor.  `in`, `len` and iteration read the
    labels alone, in `lts_step`'s order; a lookup reads that successor
    back once and keeps it."""

    __slots__ = ("_moves", "_read")

    def __init__(self, moves: tuple):
        self._moves, self._read = moves, {}

    def __getitem__(self, label: Action) -> Process:
        read = self._read
        if label not in read:
            labels = self._moves[0]
            if label not in labels:
                raise KeyError(label)
            read[label] = successor(self._moves, labels.index(label))
        return read[label]

    def __contains__(self, label) -> bool:
        return label in self._moves[0]

    def __iter__(self):
        return iter(self._moves[0])

    def __len__(self) -> int:
        return len(self._moves[0])

    def __repr__(self) -> str:
        return repr(dict(self))


def observable(p: Process, fuel: int = DEFAULT_OBS_FUEL) -> Observable:
    """What p offers once settled (`machine.settled_moves`): a menu of
    labeled transitions, each to its successor, read back when it is
    looked up, or silent (stuck with no transition, or a silent cycle),
    or unknown when the fuel runs out."""
    moves = settled_moves(p, fuel)
    if moves is None:
        return Observable("unknown")
    return Observable("menu", _Menu(moves)) if moves else Observable("silent")


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
    `machine.settled_moves`.  The work list holds a pair as its parents'
    moves and the move's index, read back (`machine.successor`) when it
    is popped.  A pair with no depth left popped after a cut is settled
    from its closure states instead: it can then only refute, which
    needs labels that differ and so sides that differ, or turn a depth
    cut into a fuel cut, and only then is it read back, to skip it if
    its sides are equal or explored.  A depth or fuel that is not an
    integer raises TypeError, a negative one ValueError.
    """
    _check_bound(depth, "depth")
    _check_bound(fuel)
    explored: dict[tuple[Process, Process], int] = {}
    cut = None  # "fuel" if a settling ran out, else "depth" if a pair was cut off
    work = [(p, q, None, depth, ())]  # the root; below it (moves_a, moves_b, k, ...)
    while work:
        a, b, k, remaining, prefix = work.pop()
        if remaining or cut is None:
            if k is not None:
                a, b = successor(a, k), successor(b, k)
            if a == b or explored.get((a, b), -1) >= remaining:
                continue
            explored[a, b] = remaining
            moves_a, moves_b = settled_moves(a, fuel), settled_moves(b, fuel)
        else:  # no depth left, after a cut
            moves_a, moves_b = _settled_successor(a, k, fuel), _settled_successor(b, k, fuel)
            if (moves_a is None or moves_b is None) and cut == "depth":
                a, b = successor(a, k), successor(b, k)
                if a == b or (a, b) in explored:
                    continue
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
            work.extend((moves_a, moves_b, k, remaining - 1, prefix + (labels_a[k],))
                        for k in reversed(range(len(labels_a))))
        elif labels_a:
            cut = cut or "depth"
    return Verdict.unknown(cut) if cut else Verdict.verified()


def beta_redexes(host: Process) -> list[Position]:
    """Positions of all beta-redexes in host, in preorder left to right."""
    return [pos for pos, sub in subterms(host)
            if type(sub) is App and type(sub.fun) is Abs]


def beta_contract(host: Process, at: Position) -> Process:
    """Contract the single beta-redex addressed by `at`."""
    redex = subterm_at(host, at)
    if not (type(redex) is App and type(redex.fun) is Abs):
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
