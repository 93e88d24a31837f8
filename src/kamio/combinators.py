"""Church numerals, the combinator library, and the function-to-process
pipeline built from the reader R, the storage operator F, and the writer W.

The combinators ship as a prelude file in concrete syntax; this module
loads it once and exposes the parsed closed terms.  Behavioral contracts
(B doubles, C doubles-plus-one, H halves, S increments, E branches on
parity, Z on zero, Y is a fixed point) are checked by the test suite
through decode_numeral, which reduces every numeral claim to a machine
run.
"""

from __future__ import annotations

import re
from importlib import resources

from .machine import DEFAULT_FUEL, ExecutionContext, nat_of_bin, run
from .syntax import (
    App, Pair, Process, Stack, Term, church_numeral,
    parse_term, require_proof_like, stack_of,
)

__all__ = [
    "decode_numeral", "storage_apply", "compile_function",
    "reader_process", "MalformedOutput",
    "COMBINATORS", "PRELUDE_SOURCE", "prelude_definitions",
    "load_prelude", "resolve_names",
    "B", "C", "H", "S", "E", "Z", "Y", "F", "Q", "R", "V", "W",
]


class MalformedOutput(Exception):
    """A numeral decode terminated with output that is not a binary numeral."""


# ---------------------------------------------------------------------------
# Prelude loading.  A prelude is a sequence of `name = term` lines; later
# entries may mention earlier names, which are expanded textually (wrapped
# in parentheses) before parsing, so the grammar itself stays closed.


def _strip_comment(line: str) -> str:
    cut = line.find("--")
    return line if cut < 0 else line[:cut]


def resolve_names(text: str, bindings: dict[str, str]) -> str:
    """Replace whole-word occurrences of bound names by their parenthesized
    definitions.  Binding is purely textual: bound names act as reserved
    words in `text`."""
    if not bindings:
        return text
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, bindings)) + r")\b")
    return pattern.sub(lambda m: "(" + bindings[m.group(1)] + ")", text)


def prelude_definitions(source: str) -> dict[str, str]:
    """Parse prelude source into an ordered name -> expanded-text mapping."""
    bindings: dict[str, str] = {}
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        name, eq, body = line.partition("=")
        name = name.strip()
        body = body.strip()
        if not eq or not body or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise ValueError(f"prelude line {lineno}: expected `name = term`, got {raw!r}")
        bindings[name] = resolve_names(body, bindings)
    return bindings


def load_prelude(source: str) -> dict[str, Term]:
    """Parse a prelude into closed terms; unbound names are an error."""
    terms: dict[str, Term] = {}
    for name, text in prelude_definitions(source).items():
        term = parse_term(text)
        if term.fvs:
            raise ValueError(
                f"prelude entry {name} is not closed (unbound: {sorted(term.fvs)})")
        terms[name] = term
    return terms


PRELUDE_SOURCE = resources.files("kamio").joinpath("prelude.kam").read_text(encoding="utf-8")
COMBINATORS: dict[str, Term] = load_prelude(PRELUDE_SOURCE)

B = COMBINATORS["B"]
C = COMBINATORS["C"]
H = COMBINATORS["H"]
S = COMBINATORS["S"]
E = COMBINATORS["E"]
Z = COMBINATORS["Z"]
Y = COMBINATORS["Y"]
F = COMBINATORS["F"]
Q = COMBINATORS["Q"]
R = COMBINATORS["R"]
V = COMBINATORS["V"]
W = COMBINATORS["W"]


# ---------------------------------------------------------------------------
# Operations


def decode_numeral(t: Term, fuel: int = DEFAULT_FUEL) -> int | None:
    """Run the writer on t and read the terminal output back as a natural.

    For any t beta-equivalent to a Church numeral this returns its value;
    this is the independent oracle for all numeral-level contracts.
    Returns None when the run does not terminate within fuel (or gets
    stuck); raises MalformedOutput if the run terminates but the output
    has a leading zero, which no binary numeral has.
    """
    result = run(ExecutionContext(Pair(App(W, t), stack_of()), "", ""), fuel)
    if not result.terminated:
        return None
    out = result.final.output
    if out.startswith("0"):
        raise MalformedOutput(f"terminal output {out!r} is not a binary numeral")
    return nat_of_bin(out)


def storage_apply(t: Term, n: int) -> Process:
    """The configuration #n * F, t, #0, F, W, #0 whose run forces the
    numeral through the storage operator, applies t, and writes the
    result: its terminal output is bin(value of t #n)."""
    return Pair(church_numeral(n), stack_of(F, t, church_numeral(0), F, W, church_numeral(0)))


def compile_function(t: Term) -> Process:
    """Wrap a numeral-level function t (t #n ~ #f(n)) into a process that
    reads bin(n), applies t, and writes bin(f(n))."""
    require_proof_like(t, "term")
    return Pair(R, stack_of(F, t, church_numeral(0), F, W, church_numeral(0)))


def reader_process(tail: Stack) -> Process:
    """The reader configured to continue with `tail` once the input is
    consumed and delivered as a Church numeral."""
    return Pair(R, tail)
