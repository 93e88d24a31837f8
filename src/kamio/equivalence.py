"""Bounded weak bisimilarity and TOP-equivalence.

Both are checked over the labeled transition system of the machine
(`machine.lts_step`, re-exported here).  Silent steps are deterministic,
and only a read head offers more than one labeled transition, so the
bounded bisimulation check can compare unique successors per label
instead of searching relations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .machine import Action, ExecutionContext, lts_step, run
from .syntax import (
    Abs, App, InvalidPosition, Position, Process,
    replace_at, subterm_at, substitute, subterms,
)
from .verdict import Verdict

__all__ = [
    "DEFAULT_DEPTH", "DEFAULT_OBS_FUEL", "Observable",
    "lts_step", "observable", "weak_bisim",
    "beta_redexes", "beta_contract", "top_equiv",
]

DEFAULT_DEPTH = 16
DEFAULT_OBS_FUEL = 100_000

_LABEL_ORDER = (Action.R0, Action.R1, Action.REPS, Action.W0, Action.W1, Action.E)


@dataclass(frozen=True)
class Observable:
    """What a process can do after silently settling.

    kind is "menu" (labeled transitions available, `entries` maps each
    label to its unique successor), "silent" (stuck, or a silent cycle was
    detected, so no visible action will ever occur), or "unknown" (fuel
    ran out before the silent chain settled).
    """

    kind: str
    entries: dict[Action, Process] | None = None

    @property
    def is_menu(self) -> bool:
        return self.kind == "menu"


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


def weak_bisim(p: Process, q: Process,
               depth: int = DEFAULT_DEPTH, fuel: int = DEFAULT_OBS_FUEL) -> Verdict:
    """Bounded weak-bisimilarity check.

    Verified means p and q match on all behaviors of at most `depth`
    visible actions (with silent settling bounded by `fuel`).  Refuted
    carries the distinguishing action sequence.  Unknown reports whether
    fuel or depth was exhausted first.
    """
    visited: set[tuple[Process, Process]] = set()
    saw_fuel = False
    saw_depth = False

    def check(a: Process, b: Process, remaining: int, prefix: tuple[Action, ...]) -> Verdict | None:
        # None signals "no difference found but exploration was cut short"
        nonlocal saw_fuel, saw_depth
        if a == b or (a, b) in visited:
            return Verdict.verified()
        visited.add((a, b))
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
    per side decides this up to fuel."""
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
