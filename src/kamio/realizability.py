"""Desk-scale classical realizability over the machine with I/O.

A pole is a set of processes closed under predecessors of effect-free
evaluation; here poles, each checking its own fields, are built from
seed sets, input/output tables or trace disciplines, so membership is
a fuel-bounded three-valued check.  Truth values are finite stack sets, a
predicate is its table of rows (index to truth value), a term realizes a
truth value when pairing it with each member stack lands in the pole, and
entailment between finite predicates is checked by enumerating realizer
tuples.  Derived connectives are `implication` calls; rule realizers are
functions of the premises' realizers.  The consistency probe gives each
candidate the `Verdict.all_of` of its stack samples; a scenario is
refuted by a candidate no stack refuted or by an effect-free member, else
unknown if a candidate ran out of fuel.  Every quantification over an
infinite set (all stacks, all realizers, all inputs) is approximated by
explicit samples, and verdicts that relied on a sample say so.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Iterable, Iterator, Mapping

from .machine import (
    Action, DEFAULT_FUEL, ExecutionContext, _check_bound, _runs_on_inputs, implements_row, run,
    settle,
)
from .syntax import (
    Abs, App, Pair, Process, Stack, Term, TOP, Var,
    effect_constants, parse_process, parse_stack, parse_term, pretty,
    require_proof_like,
)
from .verdict import Verdict, _Record, _set

__all__ = [
    "TruthValue", "Predicate", "RealizerList", "Sequent", "ContextEntry",
    "Pole", "FinitePole", "FunctionPole", "TracePole", "UnionPole",
    "COPY", "READ_ALL_THEN_WRITE",
    "trace_conforms", "all_inputs",
    "realizes", "implication", "forall_along", "reindex",
    "check_entailment",
    "IDENTITY", "weaken", "contract", "exchange", "modus_ponens",
    "consistency_probe", "ConsistencyReport",
    "scenario_from_json", "pole_from_json", "run_scenario", "verdict_to_json",
]


# ---------------------------------------------------------------------------
# Truth values, predicates, realizer lists


class TruthValue(_Record):
    """A finite set of stacks; bigger sets are `falser`.

    all_stacks marks the list as a sample of the set of all stacks (the
    falsity truth value); checks against such a sample are only ever
    under-approximations and downgrade Verified to sampled-Verified.
    """

    __slots__ = ("stacks", "all_stacks")
    stacks: tuple[Stack, ...]
    all_stacks: bool

    def __init__(self, stacks: tuple[Stack, ...], all_stacks: bool = False):
        if type(all_stacks) is not bool:
            raise ValueError(f"all_stacks must be true or false, got {all_stacks!r}")
        _set(self, "stacks", stacks)
        _set(self, "all_stacks", all_stacks)

    @staticmethod
    def of(stacks: Iterable[Stack], all_stacks: bool = False) -> "TruthValue":
        return TruthValue(tuple(dict.fromkeys(stacks)), all_stacks)

    def __iter__(self) -> Iterator[Stack]:
        return iter(self.stacks)

    def __len__(self) -> int:
        return len(self.stacks)

    def union(self, other: "TruthValue") -> "TruthValue":
        return TruthValue.of(self.stacks + other.stacks,
                             self.all_stacks or other.all_stacks)


EMPTY_TRUTH = TruthValue(())


def falsity_sample(stacks: Iterable[Stack]) -> TruthValue:
    """An explicit sample standing in for the set of all stacks."""
    return TruthValue.of(stacks, all_stacks=True)


class RealizerList(_Record):
    """Closed terms designated as known realizers of some truth value;
    a finite stand-in for the full realizer set."""

    __slots__ = ("terms",)
    terms: tuple[Term, ...]

    def __init__(self, terms: tuple[Term, ...]):
        for t in terms:
            if t.fvs:
                raise ValueError(f"realizer is not closed: {pretty(t)}")
        _set(self, "terms", terms)

    @staticmethod
    def of(terms: Iterable[Term]) -> "RealizerList":
        return RealizerList(tuple(terms))

    def __iter__(self) -> Iterator[Term]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)


class Predicate(_Record):
    """A finite-index family of truth values: its rows, an ordered mapping
    from index to truth value.  The index set is the mapping's keys."""

    __slots__ = ("mapping",)
    mapping: Mapping[Any, TruthValue]

    def __init__(self, mapping: Mapping[Any, TruthValue]):
        _set(self, "mapping", mapping)

    @staticmethod
    def of(mapping: Mapping[Any, TruthValue]) -> "Predicate":
        return Predicate(dict(mapping))

    @property
    def index_set(self) -> tuple[Any, ...]:
        return tuple(self.mapping)

    def __call__(self, index) -> TruthValue:
        return self.mapping[index]


# ---------------------------------------------------------------------------
# Poles

COPY = "copy"
READ_ALL_THEN_WRITE = "read_all_then_write"


class Pole:
    """Base class for bounded pole-membership engines."""

    __slots__ = ()

    def member(self, p: Process, fuel: int | None = None) -> Verdict:
        raise NotImplementedError


class FinitePole(Pole, _Record):
    """The saturation closure of a finite seed set: a process is a member
    iff its effect-free evaluation chain reaches a seed within fuel."""

    __slots__ = ("seeds", "fuel")
    seeds: frozenset[Process]
    fuel: int

    def __init__(self, seeds: frozenset[Process], fuel: int = 10_000):
        _check_bound(fuel)
        _set(self, "seeds", seeds)
        _set(self, "fuel", fuel)

    @staticmethod
    def of(seeds: Iterable[Process], fuel: int = 10_000) -> "FinitePole":
        return FinitePole(frozenset(seeds), fuel)

    def member(self, p: Process, fuel: int | None = None) -> Verdict:
        reason, settled = settle(p, self.fuel if fuel is None else fuel, self.seeds)
        if reason == "stop":
            return Verdict.verified()
        if reason == "fuel":
            return Verdict.unknown("fuel", witness=settled)
        return Verdict.refuted(settled)  # stuck, or cycling short of any seed


class FunctionPole(Pole, _Record):
    """Processes implementing a partial function, bounded to a finite
    table of (input, output) rows: naturals, inputs strictly increasing,
    and one row at least, or every process would verify.  Verified is an
    over-approximation: only the listed rows are checked, so it is sampled."""

    __slots__ = ("table", "fuel")
    table: tuple[tuple[int, int], ...]
    fuel: int

    def __init__(self, table: tuple[tuple[int, int], ...], fuel: int = DEFAULT_FUEL):
        _check_bound(fuel)
        if not table:
            raise ValueError("function pole table has no rows")
        previous = -1
        for n, m in table:
            if type(n) is not int or type(m) is not int:
                raise TypeError(f"function pole table rows must be integers, got {(n, m)!r}")
            if n < 0 or m < 0:
                raise ValueError(f"function pole table row {n}: naturals required")
            if n <= previous:
                raise ValueError(f"function pole table names input {n} twice" if n == previous
                                 else f"function pole table input {n} comes after {previous}")
            previous = n
        _set(self, "table", table)
        _set(self, "fuel", fuel)

    @staticmethod
    def of(table: Mapping[int, int], fuel: int = DEFAULT_FUEL) -> "FunctionPole":
        return FunctionPole(tuple(sorted(table.items())), fuel)

    def member(self, p: Process, fuel: int | None = None) -> Verdict:
        budget = self.fuel if fuel is None else fuel
        return Verdict.all_of((implements_row(p, n, m, budget) for n, m in self.table),
                              sampled=True)  # table rows only, not all of dom(f)


def all_inputs(max_len: int) -> Iterator[str]:
    """All bit strings of length 0..max_len, shortest first."""
    for length in range(max_len + 1):
        for bits in itertools.product("01", repeat=length):
            yield "".join(bits)


def trace_conforms(spec: str, p: Process, input_bits: str, fuel: int) -> Verdict:
    """Does running p on input_bits produce the visible trace the
    discipline requires?  Silent steps are unconstrained throughout.

    copy: strictly alternate reading a bit and writing that same bit,
    then observe the empty input and terminate.

    read_all_then_write: read the input bits, observe the empty input at
    least once, write the input bits last to first (writes are prepended,
    so the terminal output equals the input), then terminate.
    """
    if spec not in (COPY, READ_ALL_THEN_WRITE):
        raise ValueError(f"unknown trace discipline {spec!r}")
    result = run(ExecutionContext(p, input_bits, ""), fuel)
    return _conforms(spec, input_bits, result.outcome, result.visible_trace())


# Each bit's read and write, and two members (an Enum lookup is slow).
_READ_OF, _WRITE_OF = {"0": Action.R0, "1": Action.R1}, {"0": Action.W0, "1": Action.W1}
_REPS, _E = Action.REPS, Action.E


def _conforms(spec: str, input_bits: str, outcome: str, visible: tuple[Action, ...]) -> Verdict:
    """`trace_conforms`'s check, position by position, of a run on
    input_bits that ended with `outcome` after the actions `visible`."""
    if outcome == "fuel":
        return Verdict.unknown("fuel", witness=input_bits)
    n, last = len(input_bits), len(visible) - 1
    if outcome == "stuck" or last < 0 or visible[last] is not _E:
        ok = False
    elif spec == COPY:  # each bit read, then written; one probe of the used-up input
        ok = last == 2 * n + 1 and visible[2 * n] is _REPS and all(
            visible[2 * i] is _READ_OF[bit] and visible[2 * i + 1] is _WRITE_OF[bit]
            for i, bit in enumerate(input_bits))
    else:  # the bits read; one probe or more; the bits written, last to first
        ok = last > 2 * n and visible[n:last - n].count(_REPS) == last - 2 * n and all(
            visible[i] is _READ_OF[bit] and visible[last - 1 - i] is _WRITE_OF[bit]
            for i, bit in enumerate(input_bits))
    return Verdict.verified() if ok else Verdict.refuted((input_bits, visible))


class TracePole(Pole, _Record):
    """Processes whose visible traces satisfy a discipline on every input
    of at most `max_input_len` bits.  `member` takes the runs from one
    walk over the tree of inputs, which holds at most one level of
    paused runs (2**max_input_len); the fuel is a budget per input."""

    __slots__ = ("spec", "max_input_len", "fuel")
    spec: str
    max_input_len: int
    fuel: int

    def __init__(self, spec: str, max_input_len: int = 4, fuel: int = 100_000):
        _check_bound(fuel)
        if spec not in (COPY, READ_ALL_THEN_WRITE):
            raise ValueError(f"unknown trace discipline {spec!r}")
        if type(max_input_len) is not int:
            raise TypeError(f"max_input_len must be an integer, got {max_input_len!r}")
        if max_input_len < 0:
            raise ValueError(f"max_input_len must be non-negative, got {max_input_len}")
        _set(self, "spec", spec)
        _set(self, "max_input_len", max_input_len)
        _set(self, "fuel", fuel)

    def member(self, p: Process, fuel: int | None = None) -> Verdict:
        budget = self.fuel if fuel is None else fuel
        return Verdict.all_of((_conforms(self.spec, bits, outcome, visible)
                               for bits, outcome, visible
                               in _runs_on_inputs(p, self.max_input_len, budget)),
                              sampled=True)  # inputs up to max_input_len only


class UnionPole(Pole, _Record):
    """Union of poles: member of any part means member of the union."""

    __slots__ = ("members",)
    members: tuple[Pole, ...]

    def __init__(self, members: tuple[Pole, ...]):
        _set(self, "members", members)

    def member(self, p: Process, fuel: int | None = None) -> Verdict:
        refutations = []
        unknown = False
        for part in self.members:
            verdict = part.member(p, fuel)
            if verdict.is_verified:
                return Verdict.verified(sampled=verdict.sampled)
            if verdict.is_unknown:
                unknown = True
            else:
                refutations.append(verdict.witness)
        if unknown:
            return Verdict.unknown("fuel")
        return Verdict.refuted(tuple(refutations))


# ---------------------------------------------------------------------------
# Realizing, connectives, entailment


def realizes(pole: Pole, t: Term, s: TruthValue, fuel: int | None = None) -> Verdict:
    """Does t paired with every stack of s land in the pole?"""
    if t.fvs:
        raise ValueError(f"realizer candidate is not closed: {pretty(t)}")
    return Verdict.all_of((pole.member(Pair(t, stack), fuel).at(stack) for stack in s),
                          sampled=s.all_stacks)


def implication(realizers_of_s: RealizerList, t: TruthValue) -> TruthValue:
    """The truth value S => T as the explicit set {u . pi} built from the
    supplied realizers of S and the stacks of T.  Derived connectives take
    one call per arrow, into falsity bot (a falsity_sample) or into psi:
    top = bot => bot;  not phi = phi => bot;
    phi and psi = (phi => (psi => bot)) => bot;  phi or psi = (phi => bot) => psi.
    The result is an explicit stack set, not a sample of all stacks, so
    its `all_stacks` is False even when t is a falsity_sample.
    """
    stacks = [pi.push(u) for u in realizers_of_s for pi in t]
    return TruthValue.of(stacks)


def forall_along(f: Mapping, theta: Predicate,
                 index_set: Iterable | None = None) -> Predicate:
    """Universal quantification along f: J -> I, as the union of theta
    over each fiber (empty fibers give the empty truth value)."""
    mapping = dict.fromkeys(f.values() if index_set is None else index_set, EMPTY_TRUTH)
    for j in theta.index_set:
        i = f[j]
        if i in mapping:
            mapping[i] = mapping[i].union(theta(j))
    return Predicate(mapping)


def reindex(f: Mapping, phi: Predicate) -> Predicate:
    """Reindexing along f: J -> I: the predicate j |-> phi(f(j))."""
    return Predicate({j: phi(f[j]) for j in f})


class ContextEntry(_Record):
    """A context predicate together with, per index, the terms standing in
    for its realizer set.  Each index of the predicate needs one term at
    least, since an empty stand-in leaves an entailment nothing to check
    and so verifies it vacuously; realizers at an index the predicate
    does not have are never read.  Either raises ValueError."""

    __slots__ = ("predicate", "realizers")
    predicate: Predicate
    realizers: Mapping[Any, RealizerList]

    def __init__(self, predicate: Predicate, realizers: Mapping[Any, RealizerList]):
        extra = [i for i in realizers if i not in predicate.mapping]
        if extra:
            raise ValueError(f"realizers name indices the predicate does not have: {extra!r}")
        for index in predicate.mapping:
            if not realizers.get(index):
                raise ValueError(f"context entry has no realizers at index {index!r}")
        _set(self, "predicate", predicate)
        _set(self, "realizers", realizers)

    def realizers_at(self, index) -> RealizerList:
        return self.realizers[index]


class Sequent(_Record):
    """An entailment instance: context predicates, a conclusion predicate,
    and a candidate realizer (which must be free of instruction constants).
    Every context predicate has the conclusion's indices, in any order."""

    __slots__ = ("context", "conclusion", "candidate")
    context: tuple[ContextEntry, ...]
    conclusion: Predicate
    candidate: Term

    def __init__(self, context: tuple[ContextEntry, ...], conclusion: Predicate,
                 candidate: Term):
        require_proof_like(candidate, "candidate")
        for entry in context:
            if entry.predicate.mapping.keys() != conclusion.mapping.keys():
                raise ValueError("all predicates in a sequent share one index set")
        _set(self, "context", context)
        _set(self, "conclusion", conclusion)
        _set(self, "candidate", candidate)


def check_entailment(pole: Pole, seq: Sequent, fuel: int | None = None) -> Verdict:
    """Check the candidate against every index, every tuple of context
    realizers, and every conclusion stack.  The first refutation in
    enumeration order (indices, then tuples, then stacks) is reported.  A
    Verified is sampled when the sequent has a context, whose realizer
    lists sample realizer sets, or a conclusion truth value that samples
    all stacks (`all_stacks`)."""
    def parts() -> Iterator[Verdict]:
        for index in seq.conclusion.index_set:
            lists = [tuple(entry.realizers_at(index)) for entry in seq.context]
            for combo in itertools.product(*lists):
                for pi in seq.conclusion(index):
                    stack = pi
                    for u in reversed(combo):
                        stack = stack.push(u)
                    yield pole.member(Pair(seq.candidate, stack), fuel).at((index, combo, pi))

    sampled = bool(seq.context) or any(seq.conclusion(index).all_stacks
                                       for index in seq.conclusion.index_set)
    return Verdict.all_of(parts(), sampled)


# ---------------------------------------------------------------------------
# Rule realizers: each function maps the premises' realizers to the
# conclusion's.  The axiom's realizer is IDENTITY, Peirce's law's is cc
# itself, and bot-elimination and =>-introduction keep the premise's.

IDENTITY = Abs("x", Var("x"))


def _apply_vars(t: Term, names: list[str]) -> Term:
    for name in names:
        t = App(t, Var(name))
    return t


def weaken(t: Term) -> Term:
    """From t for Gamma |- phi, the realizer \\x. t of psi, Gamma |- phi."""
    return Abs("x", require_proof_like(t, "rule premise"))


def contract(t: Term) -> Term:
    """From t for phi, phi, Gamma |- psi, the realizer \\x. t x x of phi, Gamma |- psi."""
    require_proof_like(t, "rule premise")
    return Abs("x", App(App(t, Var("x")), Var("x")))


def exchange(t: Term, sigma: tuple[int, ...]) -> Term:
    """From t for phi_1 .. phi_n |- psi and sigma permuting 1..n, the realizer
    \\x_sigma(1) .. x_sigma(n). t x_1 .. x_n of phi_sigma(1) .. phi_sigma(n) |- psi."""
    require_proof_like(t, "rule premise")
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"sigma must permute 1..{n}: {sigma!r}")
    names = [f"x{i}" for i in range(1, n + 1)]
    body = _apply_vars(t, names)
    for i in reversed(sigma):
        body = Abs(names[i - 1], body)
    return body


def modus_ponens(t: Term, u: Term, n: int, m: int) -> Term:
    """From t for Delta |- psi => theta (|Delta| = m) and u for Gamma |- psi
    (|Gamma| = n), the realizer \\x_1 .. x_n y_1 .. y_m. t y_1 .. y_m (u x_1 .. x_n)
    of Gamma, Delta |- theta."""
    require_proof_like(t, "rule premise")
    require_proof_like(u, "rule premise")
    xs = [f"x{i}" for i in range(1, n + 1)]
    ys = [f"y{i}" for i in range(1, m + 1)]
    body = App(_apply_vars(t, ys), _apply_vars(u, xs))
    for name in reversed(xs + ys):
        body = Abs(name, body)
    return body


# ---------------------------------------------------------------------------
# Consistency probing


class ConsistencyReport(_Record):
    """Each candidate's verdict over the stack samples (Refuted at the first
    stack whose pairing leaves the pole) and every process other than TOP
    the probe saw verified: a consistent pole has no effect-free member
    other than TOP."""

    __slots__ = ("candidates", "members")
    candidates: tuple[tuple[Term, Verdict], ...]
    members: tuple[Process, ...]

    def __init__(self, candidates: tuple[tuple[Term, Verdict], ...],
                 members: tuple[Process, ...]):
        _set(self, "candidates", candidates)
        _set(self, "members", members)

    @property
    def violations(self) -> tuple[Process, ...]:
        return tuple(p for p in self.members if not effect_constants(p))


def consistency_probe(pole: Pole, candidates: Iterable[Term],
                      stack_samples: Iterable[Stack], fuel: int | None = None,
                      member_samples: Iterable[Process] = ()) -> ConsistencyReport:
    """For each effect-free candidate, search the stack samples for one
    whose pairing is refuted pole membership; also collect every process
    found to be a member (including the optional member_samples), so the
    report can audit them for an instruction constant."""
    stacks = tuple(stack_samples)
    members: list[Process] = []

    def member(p: Process) -> Verdict:
        verdict = pole.member(p, fuel)
        if verdict.is_verified and p is not TOP:
            members.append(p)
        return verdict

    verdicts = []
    for t in candidates:
        require_proof_like(t, "candidate")
        verdicts.append((t, Verdict.all_of(member(Pair(t, pi)).at(pi) for pi in stacks)))
    for p in member_samples:
        member(p)
    return ConsistencyReport(tuple(verdicts), tuple(members))


# ---------------------------------------------------------------------------
# Scenario files (JSON).  Terms and stacks appear as concrete-syntax
# strings; predicates are lists of {"index": ..., "stacks": [...]} rows.


def _integer(value, name: str) -> int:
    """The integer a scenario gives for `name`: a JSON number with no
    fractional part.  Anything else raises ValueError, since `int` would
    truncate a fraction and read a boolean or a string as a number."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {json.dumps(value)}")


def _decimal(text: str, name: str) -> int:
    """`text` read as an optional '-' and ASCII digits, else ValueError:
    `int` alone would also read "1_0", "+2", " 7 " and other scripts' digits."""
    if text.isascii() and text.removeprefix("-").isdigit():
        return int(text)
    raise ValueError(f"{name} must be an integer, got {json.dumps(text)}")


def _fuel(value) -> int:
    """A scenario's or a pole's fuel: an `_integer` that is not negative.
    A scenario's or a union's fuel has no constructor to check it."""
    fuel = _integer(value, "fuel")
    _check_bound(fuel)
    return fuel


def _list(value, key: str) -> list:
    """The JSON array a scenario gives for `key`.  Anything else raises
    TypeError, which `scenario_from_json` reports as a malformed
    scenario: a string would be read one character at a time."""
    if not isinstance(value, list):
        raise TypeError(f"{key} must be a list")
    return value


def pole_from_json(obj: dict, fuel: int | None = None) -> Pole:
    """Build a pole whose budget is its own "fuel" key, else `fuel`, else
    the pole kind's default; a union hands its budget to its members.
    Only what needs the JSON text is checked here: that each number is an
    integer, and each table key a `_decimal`; the pole checks the rest."""
    budget = _fuel(obj["fuel"]) if "fuel" in obj else fuel
    kw = {} if budget is None else {"fuel": _fuel(budget)}
    kind = obj.get("kind")
    if kind == "finite":
        return FinitePole.of([parse_process(s) for s in _list(obj["seeds"], "seeds")], **kw)
    if kind == "function":
        if not isinstance(obj["table"], dict):
            raise TypeError("table must be an object")
        rows = [(_decimal(key, "function pole table input"),
                 _integer(value, f"function pole table row {key}"))
                for key, value in obj["table"].items()]
        return FunctionPole(tuple(sorted(rows)), **kw)
    if kind == "trace":
        return TracePole(obj["spec"], _integer(obj.get("max_input_len", 4), "max_input_len"),
                         **kw)
    if kind == "union":
        members = _list(obj["members"], "members")
        return UnionPole(tuple(pole_from_json(m, budget) for m in members))
    raise ValueError(f"unknown pole kind {kind!r}")


def _by_index(rows: list[dict], field: str, build) -> dict:
    """{row["index"]: build(row)} over `rows`, the rows of scenario key
    `field`; an index named twice raises ValueError."""
    out = {}
    for row in _list(rows, field):
        index = row["index"]
        if index in out:
            raise ValueError(f"{field} names index {index!r} twice")
        out[index] = build(row)
    return out


def _predicate_from_json(rows: list[dict], field: str) -> Predicate:
    return Predicate(_by_index(rows, field, lambda row: TruthValue.of(
        parse_stack(s) for s in _list(row["stacks"], "stacks"))))


def _realizers_from_json(rows: list[dict]) -> dict[Any, RealizerList]:
    return _by_index(rows, "realizers", lambda row: RealizerList.of(
        parse_term(s) for s in _list(row["terms"], "terms")))


class Scenario(_Record):
    __slots__ = ("kind", "pole", "fuel", "sequent", "term", "truth_value",
                 "candidates", "stack_samples", "member_samples")
    kind: str
    pole: Pole
    fuel: int  # the budget a pole without its own "fuel" key was given
    sequent: Sequent | None
    term: Term | None
    truth_value: TruthValue | None
    candidates: tuple[Term, ...]
    stack_samples: tuple[Stack, ...]
    member_samples: tuple[Process, ...]

    def __init__(self, kind: str, pole: Pole, fuel: int, sequent: Sequent | None = None,
                 term: Term | None = None, truth_value: TruthValue | None = None,
                 candidates: tuple[Term, ...] = (), stack_samples: tuple[Stack, ...] = (),
                 member_samples: tuple[Process, ...] = ()):
        _set(self, "kind", kind)
        _set(self, "pole", pole)
        _set(self, "fuel", fuel)
        _set(self, "sequent", sequent)
        _set(self, "term", term)
        _set(self, "truth_value", truth_value)
        _set(self, "candidates", candidates)
        _set(self, "stack_samples", stack_samples)
        _set(self, "member_samples", member_samples)


def scenario_from_json(obj: dict, fuel: int = DEFAULT_FUEL) -> Scenario:
    """Load a scenario; a missing key or a value of the wrong type raises
    ValueError.  Each pole's budget is settled here: the pole's own "fuel"
    key (a union's passes to its members), else the scenario's "fuel",
    else `fuel`."""
    try:
        return _scenario(obj, fuel)
    except KeyError as exc:
        raise ValueError(f"scenario is missing key {exc.args[0]!r}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed scenario: {exc}") from exc


def _scenario(obj: dict, fuel: int) -> Scenario:
    if not isinstance(obj, dict):
        raise ValueError("scenario must be a JSON object")
    kind = obj.get("kind", "entailment")
    fuel = _fuel(obj.get("fuel", fuel))
    pole = pole_from_json(obj["pole"], fuel)
    if kind == "entailment":
        conclusion = _predicate_from_json(obj["conclusion"], "conclusion")
        context = tuple(ContextEntry(_predicate_from_json(entry["predicate"], "predicate"),
                                     _realizers_from_json(entry["realizers"]))
                        for entry in _list(obj.get("context", []), "context"))
        sequent = Sequent(context, conclusion, parse_term(obj["candidate"]))
        return Scenario(kind, pole, fuel, sequent=sequent)
    if kind == "realizes":
        stacks = _list(obj["truth_value"]["stacks"], "truth_value.stacks")
        tv = TruthValue.of((parse_stack(s) for s in stacks),
                           obj["truth_value"].get("all_stacks", False))
        return Scenario(kind, pole, fuel, term=parse_term(obj["term"]), truth_value=tv)
    if kind == "consistency":
        return Scenario(
            kind, pole, fuel,
            candidates=tuple(parse_term(s) for s in _list(obj["candidates"], "candidates")),
            stack_samples=tuple(parse_stack(s)
                                for s in _list(obj["stack_samples"], "stack_samples")),
            member_samples=tuple(parse_process(s) for s in
                                 _list(obj.get("member_samples", []), "member_samples")))
    raise ValueError(f"unknown scenario kind {kind!r}")


def _json_witness(value):
    if isinstance(value, (Term, Stack, Process)):
        return pretty(value)
    if isinstance(value, Action):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_json_witness(v) for v in value]
    if hasattr(value, "to_json"):
        return value.to_json()
    return value


def verdict_to_json(verdict: Verdict) -> dict:
    out = {"status": verdict.status}
    if verdict.witness is not None:
        out["witness"] = _json_witness(verdict.witness)
    if verdict.reason is not None:
        out["reason"] = verdict.reason
    if verdict.sampled:
        out["sampled"] = True
    return out


# A candidate's verdict as the report names it: a stack refuted it, or none did.
_PROBE_STATUS = {"refuted": "witness_found", "unknown": "unknown",
                 "verified": "no_witness_in_sample"}


def run_scenario(scenario: Scenario) -> tuple[Verdict, dict]:
    """Execute a scenario and return (overall verdict, JSON-able report)."""
    if scenario.kind == "entailment":
        verdict = check_entailment(scenario.pole, scenario.sequent)
        return verdict, {"kind": scenario.kind, "verdict": verdict_to_json(verdict)}
    if scenario.kind == "realizes":
        verdict = realizes(scenario.pole, scenario.term, scenario.truth_value)
        return verdict, {"kind": scenario.kind, "verdict": verdict_to_json(verdict)}
    report = consistency_probe(scenario.pole, scenario.candidates,
                               scenario.stack_samples, member_samples=scenario.member_samples)
    # The scenario refutes consistency when a candidate no stack refuted,
    # or an effect-free member, turned up; as in Verdict.all_of, a refutation
    # beats an unknown candidate, which beats Verified.
    refuting = [t for t, v in report.candidates if v.is_verified] + list(report.violations)
    if refuting:
        verdict = Verdict.refuted(refuting)
    elif any(v.is_unknown for _, v in report.candidates):
        verdict = Verdict.unknown("fuel")
    else:
        verdict = Verdict.verified(sampled=True)  # candidates and stacks are samples
    return verdict, {
        "kind": scenario.kind,
        "verdict": verdict_to_json(verdict),
        "candidates": [
            {"term": pretty(t), "status": _PROBE_STATUS[v.status],
             "witness": pretty(v.witness) if v.is_refuted else None}
            for t, v in report.candidates],
        "audit": [
            {"process": pretty(p), "has_effect_constant": bool(effect_constants(p))}
            for p in report.members],
    }
