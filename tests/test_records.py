"""The library's records against frozen dataclasses with the same fields.

The records are plain slotted classes (`kamio.verdict._Record`), so that
importing kamio generates no code; they must keep a frozen dataclass's
equality, hash, repr, defaults and immutability.
"""

import dataclasses
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kamio
from kamio.equivalence import Observable
from kamio.machine import DEFAULT_FUEL, Action, ExecutionContext, RunResult
from kamio.realizability import (
    COPY, READ_ALL_THEN_WRITE, ConsistencyReport, ContextEntry, FinitePole, FunctionPole,
    IDENTITY, Predicate, RealizerList, Scenario, Sequent, TracePole, TruthValue, UnionPole,
)
from kamio.syntax import EMPTY, END, TOP, Pair, parse_term, stack_of
from kamio.verdict import Verdict

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_generates_no_code():
    # The standard modules kamio imports go first, so only what kamio
    # itself adds is seen: on Python 3.12, importlib.resources imports
    # inspect on its own.
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import argparse, enum, functools, importlib.resources, itertools, json, re, typing; "
            "before = set(sys.modules); import kamio.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(kamio.__path__)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"kamio.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_class_tests_call_type():
    # CPython 3.11 specializes the call type(x) but not a load of x's
    # class attribute, and the closure loop tests a class on every step.
    found = [f"src/kamio/{path.name}:{number}: {line.strip()}"
             for path in sorted((SRC / "kamio").glob("*.py"))
             for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if re.search(r"\.__class__", line)]
    assert not found, ("write type(x), not the class attribute (see the CHANGES.md entry "
                       "that made every class test call type):\n" + "\n".join(found))


P = Pair(END, EMPTY)
FST = parse_term(r"\u. \v. u")
AT_I = Predicate({"i": TruthValue((EMPTY,))})
AT_I_FALSE = Predicate({"i": TruthValue((EMPTY,), True)})
ENTRY = ContextEntry(AT_I, {"i": RealizerList((FST,))})

# Each class with its fields in order, a field's default after its name
# (the defaults the dataclasses had), one set of values and, field by
# field, a different value.
RECORDS = [
    (Verdict, ["status", ("witness", None), ("reason", None), ("sampled", False)],
     ("refuted", (1, "a"), "fuel", True), ("unknown", (2,), "depth", False)),
    (ExecutionContext, ["process", ("input", ""), ("output", "")],
     (P, "01", "1"), (TOP, "10", "")),
    (RunResult, ["outcome", "final", "steps", "visible"],
     ("terminated", ExecutionContext(TOP), 2, ((1, Action.E),)),
     ("stuck", ExecutionContext(P), 0, ())),
    (Observable, ["kind", ("entries", None)],
     ("menu", {Action.E: TOP}), ("silent", None)),
    (TruthValue, ["stacks", ("all_stacks", False)],
     ((EMPTY,), True), ((stack_of(END),), False)),
    (RealizerList, ["terms"], ((IDENTITY,),), ((FST, IDENTITY),)),
    (Predicate, ["mapping"],
     ({"i": TruthValue((EMPTY,))},), ({"i": TruthValue((EMPTY,), True)},)),
    (FinitePole, ["seeds", ("fuel", 10_000)], (frozenset({P}), 5), (frozenset(), 6)),
    (FunctionPole, ["table", ("fuel", DEFAULT_FUEL)], (((0, 0),), 5), (((1, 1),), 6)),
    (TracePole, ["spec", ("max_input_len", 4), ("fuel", 100_000)],
     (COPY, 2, 5), (READ_ALL_THEN_WRITE, 3, 6)),
    (UnionPole, ["members"], ((FinitePole(frozenset()),),), ((),)),
    (ContextEntry, ["predicate", "realizers"], (AT_I, {"i": RealizerList((FST,))}),
     (AT_I_FALSE, {"i": RealizerList((IDENTITY,))})),
    (Sequent, ["context", "conclusion", "candidate"],
     ((ENTRY,), AT_I, IDENTITY), ((), AT_I_FALSE, FST)),
    (ConsistencyReport, ["candidates", "members"],
     (((IDENTITY, Verdict.verified()),), (P,)), ((), ())),
    (Scenario, ["kind", "pole", "fuel", ("sequent", None), ("term", None),
                ("truth_value", None), ("candidates", ()), ("stack_samples", ()),
                ("member_samples", ())],
     ("realizes", FinitePole(frozenset({P})), 7, None, IDENTITY, TruthValue((EMPTY,)),
      (IDENTITY,), (EMPTY,), (P,)),
     ("consistency", UnionPole(()), 8, Sequent((), AT_I, IDENTITY), None, None, (), (), ())),
]


def _twin(cls, fields):
    spec = [(f, object) if isinstance(f, str)
            else (f[0], object, dataclasses.field(default=f[1])) for f in fields]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def _hash(record):
    try:
        return hash(record)
    except TypeError as exc:
        return TypeError, str(exc)


@pytest.mark.parametrize("cls, fields, values, others", RECORDS,
                         ids=[row[0].__name__ for row in RECORDS])
def test_record_matches_frozen_dataclass(cls, fields, values, others):
    twin = _twin(cls, fields)
    names = [f if isinstance(f, str) else f[0] for f in fields]
    assert cls.__slots__ == tuple(names)
    record = cls(*values)
    assert repr(record) == repr(twin(*values))
    assert _hash(record) == _hash(twin(*values))  # a dict in a field: TypeError for both
    assert record == cls(*values)
    assert not record != cls(*values)
    for i in range(len(values)):
        changed = cls(*values[:i], others[i], *values[i + 1:])
        assert record != changed and not record == changed
    assert record != twin(*values)  # another class is never equal

    required = sum(isinstance(f, str) for f in fields)
    bare = cls(*values[:required])
    assert repr(bare) == repr(twin(*values[:required]))
    for f in fields[required:]:
        assert getattr(bare, f[0]) == f[1]
    assert cls(**dict(zip(names, values))) == record

    for name, other in zip(names, others):
        with pytest.raises(AttributeError):
            setattr(record, name, other)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown_field = 1
    assert record == cls(*values)

